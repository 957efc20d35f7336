//! The conventional edit-compile-run baseline — paper §2's seven-step
//! cycle.
//!
//! A [`RestartSession`] behaves like a conventional IDE: every code
//! edit (1) stops the program, (2–4) recompiles and restarts it from
//! scratch — losing all model state and re-paying initialization cost,
//! including the simulated listing download — and (5) replays the
//! recorded user navigation to get back to the UI context the
//! programmer was looking at. The E3 experiment compares this against
//! the live UPDATE transition.

use alive_core::system::{ActionError, System};
use alive_core::vm::Cost;
use alive_core::{compile, RuntimeError};
use alive_syntax::Diagnostics;

/// A recorded user interaction, replayed after every restart.
#[derive(Debug, Clone, PartialEq)]
pub enum NavAction {
    /// Tap the box at a path.
    Tap(Vec<usize>),
    /// Edit the text of the box at a path.
    EditBox(Vec<usize>, String),
    /// Press the back button.
    Back,
}

/// Errors from the restart baseline.
#[derive(Debug)]
pub enum RestartError {
    /// The program did not compile; in this baseline the programmer
    /// cannot even run it.
    Compile(Diagnostics),
    /// The program failed at run time.
    Runtime(RuntimeError),
    /// Replaying the navigation script no longer works under the new
    /// code (the box disappeared) — the programmer must re-navigate by
    /// hand; we surface it as an error.
    Replay(ActionError),
}

impl std::fmt::Display for RestartError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestartError::Compile(ds) => write!(f, "does not compile:\n{ds}"),
            RestartError::Runtime(e) => write!(f, "runtime error: {e}"),
            RestartError::Replay(e) => write!(f, "navigation replay failed: {e}"),
        }
    }
}

impl std::error::Error for RestartError {}

/// The edit-compile-run baseline session.
#[derive(Debug)]
pub struct RestartSession {
    source: String,
    system: System,
    script: Vec<NavAction>,
    restarts: u64,
}

impl RestartSession {
    /// Compile and start the program.
    ///
    /// # Errors
    ///
    /// See [`RestartError`].
    pub fn new(source: &str) -> Result<Self, RestartError> {
        let program = compile(source).map_err(RestartError::Compile)?;
        let mut system = System::new(program);
        system
            .run_to_stable()
            .map_err(|fault| RestartError::Runtime(fault.error))?;
        Ok(RestartSession {
            source: source.to_string(),
            system,
            script: Vec::new(),
            restarts: 0,
        })
    }

    /// The running system.
    pub fn system(&self) -> &System {
        &self.system
    }

    /// The current source.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// How many full restarts edits have cost so far.
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// Total accumulated cost, including all restart re-executions.
    pub fn cost(&self) -> Cost {
        self.system.cost()
    }

    /// Perform and record a user interaction.
    ///
    /// # Errors
    ///
    /// See [`RestartError`].
    pub fn interact(&mut self, action: NavAction) -> Result<(), RestartError> {
        apply_action(&mut self.system, &action).map_err(RestartError::Replay)?;
        self.system
            .run_to_stable()
            .map_err(|fault| RestartError::Runtime(fault.error))?;
        self.script.push(action);
        Ok(())
    }

    /// Apply a code edit the conventional way: recompile, restart from
    /// nothing, and replay the navigation script to get back to the
    /// current UI context (paper §2 steps 1–6). All model state built
    /// up by handlers is lost except what the replay rebuilds.
    ///
    /// # Errors
    ///
    /// See [`RestartError`]. On compile errors the old program keeps
    /// running (like an IDE refusing to launch).
    pub fn edit_source(&mut self, new_source: &str) -> Result<(), RestartError> {
        let program = compile(new_source).map_err(RestartError::Compile)?;
        // Step 1/4: stop and restart with a fresh system — note the
        // accumulated cost carries over so E3 can total the session.
        let old_cost = self.system.cost();
        let mut system = System::new(program);
        system
            .run_to_stable()
            .map_err(|fault| RestartError::Runtime(fault.error))?;
        // Step 5: navigate back to the UI context.
        for action in &self.script {
            apply_action(&mut system, action).map_err(RestartError::Replay)?;
            system
                .run_to_stable()
                .map_err(|fault| RestartError::Runtime(fault.error))?;
        }
        self.absorb_cost(&mut system, old_cost);
        self.system = system;
        self.source = new_source.to_string();
        self.restarts += 1;
        Ok(())
    }

    fn absorb_cost(&self, system: &mut System, old: Cost) {
        // System has no public cost setter; accumulate via a shadow --
        // we keep it simple and fold the old cost into the new system's
        // counter through the debug accessor pattern.
        system.add_external_cost(old);
    }
}

fn apply_action(system: &mut System, action: &NavAction) -> Result<(), ActionError> {
    match action {
        NavAction::Tap(path) => system.tap(path),
        NavAction::EditBox(path, text) => system.edit_box(path, text),
        NavAction::Back => {
            system.back();
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alive_apps::mortgage;
    use alive_core::Value;

    #[test]
    fn restart_loses_model_state_and_repays_downloads() {
        let src = mortgage::mortgage_src(5);
        let mut session = RestartSession::new(&src).expect("starts");
        let downloads_initial = session.cost().prim.web_requests;
        assert_eq!(downloads_initial, 1);

        // Navigate: open the first listing's detail page.
        session
            .interact(NavAction::Tap(vec![1, 0]))
            .expect("navigates");
        assert_eq!(
            session.system().current_page().map(|(n, _)| n),
            Some("detail")
        );

        // An aesthetic tweak forces a full restart + re-download + replay.
        let edited = src.replace("post \"Local\";", "post \"Nearby\";");
        session.edit_source(&edited).expect("edit restarts");
        assert_eq!(session.restarts(), 1);
        assert_eq!(session.cost().prim.web_requests, 2, "download paid again");
        // Replay brought us back to the detail page.
        assert_eq!(
            session.system().current_page().map(|(n, _)| n),
            Some("detail")
        );
    }

    #[test]
    fn restart_resets_handler_built_state() {
        let src = "
            global count : number = 0
            page start() {
                render {
                    boxed { post count; on tap { count := count + 1; } }
                }
            }";
        let mut session = RestartSession::new(src).expect("starts");
        session.interact(NavAction::Tap(vec![0])).expect("tap");
        assert_eq!(
            session.system().store().get("count"),
            Some(&Value::Number(1.0))
        );
        session
            .edit_source(&src.replace("post count;", "post \"n: \" ++ count;"))
            .expect("edit");
        // The tap was replayed once from scratch: count is 1 again, but
        // only because the replay re-tapped — the state itself was lost.
        assert_eq!(
            session.system().store().get("count"),
            Some(&Value::Number(1.0))
        );
        // An edit that renames the box path structure would break replay
        // entirely; here we just confirm the restart count.
        assert_eq!(session.restarts(), 1);
    }
}
