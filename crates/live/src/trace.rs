//! Session traces: record a live programming session — interactions
//! *and* code edits — and replay it deterministically.
//!
//! The paper's §1 discusses trace-based approaches to liveness and
//! §4's model makes determinism easy to state: given the same initial
//! source and the same event sequence, the system reaches the same
//! state. Traces turn that property into a tool — reproducible bug
//! reports, golden-session tests, and the benches' scripted users.
//!
//! A trace is the initial source plus the protocol command stream the
//! session received, in the protocol's own wire format
//! ([`SessionCommand::serialize`] / [`parse_commands`]): a comment
//! header, an `editsource` block carrying the initial program, then one
//! command after another — refused commands and queries included,
//! since replaying them is harmless and keeps the stream verbatim.
//!
//! ```text
//! #alive-trace v2
//! editsource 123
//! <123 bytes of source>
//! tap 1 0
//! back
//! editbox 2 0 -- 15
//! attredit 0 margin -- 2
//! undo
//! ```

use crate::protocol::{
    parse_commands, push_block, ProtocolParseError, SessionCommand, SessionEffect,
};
use crate::session::{LiveSession, SessionError};

/// A recorded session: initial source plus the commands it received,
/// in order.
///
/// ```
/// use alive_live::{RecordingSession, SessionCommand, SessionTrace};
///
/// let src = "global n : number = 0
///     page start() {
///         render { boxed { post n; on tap { n := n + 1; } } }
///     }";
/// let mut recording = RecordingSession::new(src)?;
/// recording.apply(SessionCommand::TapPath(vec![0]));
/// recording.apply(SessionCommand::TapPath(vec![0]));
/// let (_, trace) = recording.into_parts();
///
/// // The serialized trace replays deterministically.
/// let parsed = SessionTrace::parse(&trace.serialize())?;
/// let mut replayed = parsed.replay()?;
/// assert_eq!(replayed.live_view(), "2\n");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SessionTrace {
    /// The program the session started from.
    pub initial_source: String,
    /// The recorded commands.
    pub commands: Vec<SessionCommand>,
}

impl SessionTrace {
    /// A new empty trace for a program.
    pub fn new(initial_source: impl Into<String>) -> Self {
        SessionTrace {
            initial_source: initial_source.into(),
            commands: Vec::new(),
        }
    }

    /// Replay the trace from scratch, returning the resulting session.
    /// [`LiveSession::apply`] is total, so a command refused when it
    /// was recorded is refused again, with the same effect on the
    /// session: none.
    ///
    /// # Errors
    ///
    /// [`SessionError`] if the initial program does not compile.
    pub fn replay(&self) -> Result<LiveSession, SessionError> {
        self.replay_prefix(self.commands.len())
    }

    /// Replay only the first `steps` commands — time travel: inspect
    /// the session as it was after any prefix of the recorded history.
    /// `steps` beyond the trace length replays everything.
    ///
    /// # Errors
    ///
    /// See [`SessionTrace::replay`].
    pub fn replay_prefix(&self, steps: usize) -> Result<LiveSession, SessionError> {
        let mut session = LiveSession::new(&self.initial_source)?;
        for command in self.commands.iter().take(steps) {
            session.apply(command.clone());
        }
        Ok(session)
    }

    /// Serialize to the trace format: the `#alive-trace v2` header, the
    /// initial source as an `editsource` block, then every command.
    pub fn serialize(&self) -> String {
        let mut out = String::from("#alive-trace v2\n");
        push_block(&mut out, "editsource", &self.initial_source);
        for command in &self.commands {
            out.push_str(&command.serialize());
        }
        out
    }

    /// Parse the trace format: a command stream whose first command is
    /// the `editsource` block carrying the initial source.
    ///
    /// # Errors
    ///
    /// [`ProtocolParseError`] pointing at the malformed line, or at
    /// line 1 when the stream does not open with an `editsource` block.
    pub fn parse(text: &str) -> Result<SessionTrace, ProtocolParseError> {
        let mut commands = parse_commands(text)?.into_iter();
        match commands.next() {
            Some(SessionCommand::EditSource(initial_source)) => Ok(SessionTrace {
                initial_source,
                commands: commands.collect(),
            }),
            _ => Err(ProtocolParseError {
                line: 1,
                message: "a trace opens with an `editsource` block carrying the initial source"
                    .to_string(),
            }),
        }
    }
}

/// A live session that records every command it is asked to apply.
#[derive(Debug)]
pub struct RecordingSession {
    session: LiveSession,
    trace: SessionTrace,
}

impl RecordingSession {
    /// Start a recording session.
    ///
    /// # Errors
    ///
    /// See [`LiveSession::new`].
    pub fn new(source: &str) -> Result<Self, SessionError> {
        Ok(RecordingSession {
            session: LiveSession::new(source)?,
            trace: SessionTrace::new(source),
        })
    }

    /// Start a recording session whose metrics resolve from `registry`
    /// (default config) — see [`LiveSession::observed`].
    ///
    /// # Errors
    ///
    /// See [`LiveSession::new`].
    pub fn observed(source: &str, registry: &alive_obs::Registry) -> Result<Self, SessionError> {
        Ok(RecordingSession {
            session: LiveSession::observed(
                source,
                alive_core::system::SystemConfig::default(),
                registry,
            )?,
            trace: SessionTrace::new(source),
        })
    }

    /// The underlying session (read-only; mutations must go through
    /// [`RecordingSession::apply`] or they would escape the trace).
    pub fn session(&self) -> &LiveSession {
        &self.session
    }

    /// Mutable access *for view rendering only* (e.g. the Figure 2
    /// split view needs `&mut` to settle pending renders). Rendering is
    /// not a command; do not use this to mutate the model.
    pub fn session_view_mut(&mut self) -> &mut LiveSession {
        &mut self.session
    }

    /// The trace so far.
    pub fn trace(&self) -> &SessionTrace {
        &self.trace
    }

    /// Finish recording and return both parts.
    pub fn into_parts(self) -> (LiveSession, SessionTrace) {
        (self.session, self.trace)
    }

    /// Record a protocol command and apply it (see
    /// [`LiveSession::apply`]).
    pub fn apply(&mut self, command: SessionCommand) -> Vec<SessionEffect> {
        self.trace.commands.push(command.clone());
        self.session.apply(command)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alive_apps::{mortgage, COUNTER_SRC};
    use SessionCommand::{AttrEdit, Back, EditBox, EditSource, Redo, TapPath, Undo};

    fn record_mortgage_session() -> (LiveSession, SessionTrace) {
        let src = mortgage::mortgage_src(4);
        let mut rec = RecordingSession::new(&src).expect("starts");
        for command in [
            TapPath(vec![1, 1]),
            EditBox {
                path: vec![2, 0],
                text: "15".into(),
            },
            EditSource(mortgage::apply_improvement_i2(&src)),
            Back,
        ] {
            rec.apply(command);
        }
        rec.into_parts()
    }

    /// The session and its replay agree on view, store and source.
    fn assert_same_session(case: &str, original: &mut LiveSession, replayed: &mut LiveSession) {
        assert_eq!(original.live_view(), replayed.live_view(), "{case}: view");
        assert_eq!(
            original.system().store(),
            replayed.system().store(),
            "{case}: store"
        );
        assert_eq!(original.source(), replayed.source(), "{case}: source");
    }

    #[test]
    fn recorded_sessions_round_trip_and_replay_exactly() {
        const LABEL_SRC: &str = "global label : string = \"x\"
            page start() {
                render { boxed { post label; on edited(t : string) { label := t; } } }
            }";
        let edit = |text: &str| EditBox {
            path: vec![0],
            text: text.into(),
        };
        // (case, program, commands, text the final view or source shows)
        let cases: Vec<(&str, &str, Vec<SessionCommand>, &str)> = vec![
            (
                "a refused tap, then a good one",
                COUNTER_SRC,
                vec![TapPath(vec![9, 9]), TapPath(vec![1])],
                "count: 1",
            ),
            (
                "an attribute edit, undone and redone",
                COUNTER_SRC,
                vec![
                    AttrEdit {
                        path: vec![0],
                        attr: "margin".into(),
                        value: "2".into(),
                    },
                    Undo,
                    Redo,
                ],
                "box.margin := 2;",
            ),
            (
                "box texts the wire must escape",
                LABEL_SRC,
                vec![edit("line1\nline2"), edit("trailing  "), edit("a\\nb")],
                "a\\nb",
            ),
        ];
        // Every prefix of each session must survive the round trip: an
        // unrecorded command shows up at the step that applied it.
        for (case, src, commands, shows) in cases {
            let mut rec = RecordingSession::new(src).expect("starts");
            for (step, command) in commands.into_iter().enumerate() {
                rec.apply(command);
                let context = format!("{case}, step {step}");
                let parsed = SessionTrace::parse(&rec.trace().serialize()).expect("parses");
                assert_eq!(&parsed, rec.trace(), "{context}: trace round trip");
                let mut replayed = parsed.replay().expect("replays");
                assert_same_session(&context, rec.session_view_mut(), &mut replayed);
            }
            let original = rec.session_view_mut();
            let shown = format!("{}{}", original.live_view(), original.source());
            assert!(
                shown.contains(shows),
                "{case}: expected `{shows}` in\n{shown}"
            );
        }

        // A trace opens with the initial source, and the command stream
        // after it must parse.
        let (_, trace) = record_mortgage_session();
        let text = trace.serialize();
        assert!(text.starts_with("#alive-trace v2\neditsource "), "{text}");
        assert_eq!(SessionTrace::parse(&text).expect("parses"), trace);
        assert!(SessionTrace::parse("").is_err());
        assert!(SessionTrace::parse("#alive-trace v2\ntap 0\n").is_err());
        assert!(SessionTrace::parse("#alive-trace v2\neditsource 99\nshort").is_err());
        let err = SessionTrace::parse("#alive-trace v2\neditsource 1\nx\nfly 1 2")
            .expect_err("unknown command");
        assert!(err.to_string().contains("unknown command"), "{err}");
    }

    #[test]
    fn replay_reproduces_the_session_exactly() {
        let (mut original, trace) = record_mortgage_session();
        let mut replayed = trace.replay().expect("replays");
        assert_same_session("mortgage", &mut original, &mut replayed);
    }

    #[test]
    fn replay_prefix_time_travels() {
        let (_, trace) = record_mortgage_session();
        // Step 0: fresh session on the start page.
        let t0 = trace.replay_prefix(0).expect("replays");
        assert_eq!(t0.system().current_page().map(|(n, _)| n), Some("start"));
        // Step 1: after the tap, on the detail page.
        let t1 = trace.replay_prefix(1).expect("replays");
        assert_eq!(t1.system().current_page().map(|(n, _)| n), Some("detail"));
        // Step 2: term edited.
        let t2 = trace.replay_prefix(2).expect("replays");
        assert_eq!(
            t2.system().store().get("term"),
            Some(&alive_core::Value::Number(15.0))
        );
        // Prefix beyond the end == full replay.
        let mut full = trace.replay_prefix(999).expect("replays");
        let mut exact = trace.replay().expect("replays");
        assert_same_session("prefix 999", &mut full, &mut exact);
    }
}
