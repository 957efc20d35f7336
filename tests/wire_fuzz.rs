//! Wire fuzzing: random and mutated command text goes through
//! `parse_commands`, and every batch that parses is applied to live
//! sessions on the corpus programs through `LiveSession::apply`. Taps
//! land at negative, out-of-frame and extreme coordinates, and source
//! edits are interleaved with them, so many taps hit a display no frame
//! was read for yet. After every batch the session must not have
//! panicked, and its live view must equal a from-scratch layout and
//! paint of its display tree. Every session runs inside a
//! `RecordingSession`. At the end of each program the recorded trace
//! must survive serialize then parse unchanged, and its replay must
//! show the same view, store and source as the live session.
//!
//! Replay a failure with
//! `ALIVE_TESTKIT_SEED=0x… cargo test --test wire_fuzz`.

use alive_corpus::corpus;
use alive_testkit::{check, Config, NoShrink, Rng};
use its_alive::live::{
    parse_commands, LiveSession, RecordingSession, SessionCommand, SessionTrace,
};
use its_alive::ui::{layout, render_to_text};

/// Batches applied per corpus program in each case.
const BATCHES: usize = 6;

/// A source edit: usually a small change the checker accepts (a letter
/// inserted after a quote, which lands inside a string literal when
/// the quote opens one), sometimes a cut that breaks the program, and
/// sometimes the original source back.
fn edited_source(rng: &mut Rng, original: &str, current: &str) -> String {
    match rng.below(4) {
        0 => original.to_string(),
        1 => {
            let chars: Vec<char> = current.chars().collect();
            let start = rng.below(chars.len().max(1));
            let end = (start + 1 + rng.below(12)).min(chars.len());
            chars[..start].iter().chain(&chars[end..]).collect()
        }
        _ => {
            let quotes: Vec<usize> = current.match_indices('"').map(|(i, _)| i).collect();
            if quotes.is_empty() {
                return original.to_string();
            }
            let at = *rng.choose(&quotes) + 1;
            let letter = rng.string_in("abcxyz", 1, 3);
            format!("{}{letter}{}", &current[..at], &current[at..])
        }
    }
}

/// A coordinate that is usually on or near the frame, sometimes well
/// outside it, and sometimes at the extremes of `i32`.
fn coordinate(rng: &mut Rng, extent: i32) -> i32 {
    match rng.below(8) {
        0 => -(rng.below(20) as i32) - 1,
        1 => extent + rng.below(50) as i32,
        2 => *rng.choose(&[i32::MIN, i32::MAX, -1]),
        _ => rng.below(extent.max(1) as usize) as i32,
    }
}

fn command(rng: &mut Rng, original: &str, session: &LiveSession) -> SessionCommand {
    match rng.below(12) {
        0..=4 => SessionCommand::TapAt {
            x: coordinate(rng, 60),
            y: coordinate(rng, 40),
        },
        5 | 6 => SessionCommand::EditSource(edited_source(rng, original, session.source())),
        7 => SessionCommand::TapPath((0..1 + rng.below(2)).map(|_| rng.below(6)).collect()),
        8 => SessionCommand::Back,
        9 => rng
            .choose(&[SessionCommand::Undo, SessionCommand::Redo])
            .clone(),
        10 => SessionCommand::EditBox {
            path: vec![rng.below(6)],
            text: rng.string_in("0123456789ab", 0, 4),
        },
        _ => rng
            .choose(&[
                SessionCommand::Frame,
                SessionCommand::Stats,
                SessionCommand::Examples,
                SessionCommand::Snapshot,
            ])
            .clone(),
    }
}

/// Damage wire text the way a flaky client or transport might: replace
/// a character, drop or repeat a line, or cut the text short.
fn mutate(rng: &mut Rng, text: &str) -> String {
    let mut out = text.to_string();
    for _ in 0..1 + rng.below(3) {
        let mut chars: Vec<char> = out.chars().collect();
        if chars.is_empty() {
            break;
        }
        let at = rng.below(chars.len());
        match rng.below(4) {
            0 => {
                let noise: Vec<char> = rng.any_string(3).chars().collect();
                chars.splice(at..at + 1, noise);
                out = chars.into_iter().collect();
            }
            1 | 2 => {
                let mut lines: Vec<&str> = out.lines().collect();
                let line = rng
                    .below(lines.len().max(1))
                    .min(lines.len().saturating_sub(1));
                if rng.gen_bool() {
                    lines.remove(line);
                } else {
                    lines.insert(line, lines[line]);
                }
                out = lines.join("\n");
            }
            _ => out = chars[..at].iter().collect(),
        }
    }
    out
}

/// The invariant after every batch: the live view is a from-scratch
/// layout and paint of the display tree, or a stable placeholder when
/// the session has no view.
fn check_view(session: &mut LiveSession, context: &str) -> Result<(), String> {
    let view = session.live_view();
    let expected = match session.display_tree() {
        Some(root) => render_to_text(&layout(&root)),
        None => session.live_view(),
    };
    if view == expected {
        Ok(())
    } else {
        Err(format!(
            "{context}: live view diverged\n--- live ---\n{view}--- expected ---\n{expected}"
        ))
    }
}

/// The replay of a trace and the session it recorded agree on view,
/// store and source.
fn check_replay(
    session: &mut LiveSession,
    replayed: &mut LiveSession,
    context: &str,
) -> Result<(), String> {
    let (view, replayed_view) = (session.live_view(), replayed.live_view());
    if view != replayed_view {
        return Err(format!(
            "{context}: replay view diverged\n--- session ---\n{view}--- replay ---\n{replayed_view}"
        ));
    }
    if session.system().store() != replayed.system().store() {
        return Err(format!("{context}: replay store diverged"));
    }
    if session.source() != replayed.source() {
        return Err(format!("{context}: replay source diverged"));
    }
    Ok(())
}

fn walk(seed: u64) -> Result<(), String> {
    let mut rng = Rng::new(seed);
    for program in corpus() {
        let name = program.spec.name();
        let original = program.source;
        let compile_error = |e| format!("{name}: corpus program does not compile: {e:?}");
        let mut recording = RecordingSession::new(&original).map_err(compile_error)?;
        for batch in 0..BATCHES {
            // Random text first: the parser must answer, never panic.
            if let Ok(commands) = parse_commands(&rng.any_string(120)) {
                for c in commands {
                    recording.apply(c);
                }
            }
            let commands: Vec<SessionCommand> = (0..2 + rng.below(5))
                .map(|_| command(&mut rng, &original, recording.session()))
                .collect();
            let text: String = commands.iter().map(SessionCommand::serialize).collect();
            let reparsed = parse_commands(&text)
                .map_err(|e| format!("{name}: serialized batch does not parse: {e:?}"))?;
            if reparsed != commands {
                return Err(format!("{name}: batch did not round-trip:\n{text}"));
            }
            let commands = match parse_commands(&mutate(&mut rng, &text)) {
                Ok(mutated) if rng.gen_bool() => mutated,
                _ => commands,
            };
            for c in commands {
                recording.apply(c);
            }
            let context = format!("{name} batch {batch}");
            check_view(recording.session_view_mut(), &context)?;
        }
        let text = recording.trace().serialize();
        let trace = SessionTrace::parse(&text)
            .map_err(|e| format!("{name}: recorded trace does not parse: {e}"))?;
        if &trace != recording.trace() {
            return Err(format!("{name}: trace did not round-trip:\n{text}"));
        }
        let mut replayed = trace
            .replay()
            .map_err(|e| format!("{name}: trace does not replay: {e}"))?;
        check_replay(recording.session_view_mut(), &mut replayed, &name)?;
    }
    Ok(())
}

#[test]
fn wire_commands_never_break_a_session_or_its_view() {
    check(
        "wire_fuzz/corpus",
        Config::with_cases(6),
        |rng| NoShrink(rng.next_u64()),
        |input| walk(input.0),
    );
}
