//! The unified error taxonomy for guarded simulation.
//!
//! Every way a simulation can fail — unparsable input, a structurally
//! unusable netlist, a blown resource budget, an engine panic, or a
//! cross-check divergence — maps into one [`SimError`], carrying the
//! engine and compile/run phase it happened in. Callers route on the
//! coarse [`FailureClass`] (the CLI turns it into a process exit code);
//! the full typed cause stays available through [`SimError::kind`].

use std::fmt;

use uds_netlist::bench_format::ParseError;
use uds_netlist::{BuildError, LevelizeError, LimitExceeded};

use crate::cancel::CancelCause;
use crate::crosscheck::Mismatch;
use crate::Engine;

/// Where in the pipeline an error arose.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SimPhase {
    /// Reading `.bench` text.
    Parse,
    /// Programmatic netlist construction.
    Build,
    /// Levelization / structural analysis.
    Levelize,
    /// Engine compilation.
    Compile,
    /// Vector execution.
    Run,
    /// Lockstep verification against a reference engine.
    CrossCheck,
}

impl fmt::Display for SimPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SimPhase::Parse => "parse",
            SimPhase::Build => "build",
            SimPhase::Levelize => "levelize",
            SimPhase::Compile => "compile",
            SimPhase::Run => "run",
            SimPhase::CrossCheck => "cross-check",
        })
    }
}

/// The typed cause of a [`SimError`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SimErrorKind {
    /// `.bench` text was rejected.
    Parse(ParseError),
    /// Netlist construction was rejected.
    Build(BuildError),
    /// The netlist is structurally unusable for compiled simulation
    /// (combinational cycle, or sequential without cutting).
    Structural(LevelizeError),
    /// A monitored net does not exist (PC-set method).
    UnknownMonitor,
    /// The netlist has more gate pins than a compiled program can
    /// address — structurally too large, not a bug (exit 4, not 6).
    PinCountOverflow {
        /// How many pins the netlist has.
        pins: usize,
    },
    /// A resource budget was exceeded.
    Budget(LimitExceeded),
    /// An engine panicked; the payload is the panic message. The panic
    /// was contained — no state of other engines was affected.
    EnginePanicked {
        /// Panic payload rendered to text.
        message: String,
    },
    /// An input vector's length does not match the primary-input count.
    VectorWidth {
        /// What the circuit expects.
        expected: usize,
        /// What the vector supplied.
        got: usize,
    },
    /// The run was stopped cooperatively before finishing — an explicit
    /// cancellation or a passed deadline ([`crate::cancel`]). Work up
    /// to `vectors_done` completed and is accounted for; nothing after
    /// it ran.
    Cancelled {
        /// Why the token tripped.
        cause: CancelCause,
        /// Vectors the interrupted worker finished before stopping.
        vectors_done: usize,
    },
    /// Two engines disagreed on a value or history.
    Mismatch(Mismatch),
    /// The native engine's toolchain is unavailable or failed: no C
    /// compiler on `PATH`, `cc` rejected the emitted translation unit,
    /// or the compiled shared object could not be loaded. The guarded
    /// chain treats this like any other compile failure and degrades
    /// to an interpreted engine.
    Toolchain {
        /// What the toolchain step reported.
        message: String,
    },
    /// Every engine in a fallback chain failed; the payload holds the
    /// per-engine errors in chain order.
    ChainExhausted(Vec<SimError>),
}

/// Coarse failure classes, one per CLI exit code.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FailureClass {
    /// Bad invocation or malformed stimulus (exit 2).
    Usage,
    /// Input could not be parsed or read (exit 3).
    Parse,
    /// The netlist is structurally unusable (exit 4).
    Structural,
    /// A resource budget was exceeded (exit 5).
    Budget,
    /// An engine panicked (exit 6).
    Panic,
    /// Engines disagreed — a correctness failure (exit 7).
    Mismatch,
    /// The native engine's C toolchain is missing or failed (exit 8).
    Toolchain,
}

impl FailureClass {
    /// The process exit code the CLI uses for this class.
    pub fn exit_code(self) -> i32 {
        match self {
            FailureClass::Usage => 2,
            FailureClass::Parse => 3,
            FailureClass::Structural => 4,
            FailureClass::Budget => 5,
            FailureClass::Panic => 6,
            FailureClass::Mismatch => 7,
            FailureClass::Toolchain => 8,
        }
    }
}

impl fmt::Display for FailureClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FailureClass::Usage => "usage",
            FailureClass::Parse => "parse",
            FailureClass::Structural => "structural",
            FailureClass::Budget => "budget",
            FailureClass::Panic => "panic",
            FailureClass::Mismatch => "mismatch",
            FailureClass::Toolchain => "toolchain",
        })
    }
}

/// One simulation failure: a typed cause plus where it happened.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SimError {
    /// The typed cause.
    pub kind: SimErrorKind,
    /// The pipeline phase.
    pub phase: SimPhase,
    /// The engine involved, when one was selected.
    pub engine: Option<Engine>,
    /// The circuit's name, when known.
    pub circuit: Option<String>,
}

impl SimError {
    /// Wraps a cause with its phase; engine/circuit attach via
    /// [`SimError::with_engine`] / [`SimError::with_circuit`].
    pub fn new(kind: SimErrorKind, phase: SimPhase) -> Self {
        SimError {
            kind,
            phase,
            engine: None,
            circuit: None,
        }
    }

    /// A [`SimErrorKind::EnginePanicked`] error from a caught panic payload
    /// (panics carry `&str` or `String`; anything else gets a
    /// placeholder).
    pub(crate) fn from_panic(payload: Box<dyn std::any::Any + Send>, phase: SimPhase) -> Self {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_owned()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_owned()
        };
        SimError::new(SimErrorKind::EnginePanicked { message }, phase)
    }

    /// Attaches the engine the error arose in.
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = Some(engine);
        self
    }

    /// Attaches the circuit name.
    pub fn with_circuit(mut self, circuit: impl Into<String>) -> Self {
        self.circuit = Some(circuit.into());
        self
    }

    /// The coarse class this error routes to. A chain-exhausted error
    /// takes the class of its *last* failure — the event-driven baseline
    /// is last in the default chain, so whatever stopped even the
    /// baseline is the story worth telling.
    pub fn class(&self) -> FailureClass {
        match &self.kind {
            SimErrorKind::Parse(_) => FailureClass::Parse,
            SimErrorKind::Build(_) => FailureClass::Parse,
            SimErrorKind::Structural(_) => FailureClass::Structural,
            SimErrorKind::UnknownMonitor => FailureClass::Usage,
            SimErrorKind::PinCountOverflow { .. } => FailureClass::Structural,
            SimErrorKind::Budget(_) => FailureClass::Budget,
            SimErrorKind::EnginePanicked { .. } => FailureClass::Panic,
            SimErrorKind::VectorWidth { .. } => FailureClass::Usage,
            // A tripped deadline is a blown time budget; an explicit
            // cancel routes the same way (the caller asked, exit 5).
            SimErrorKind::Cancelled { .. } => FailureClass::Budget,
            SimErrorKind::Mismatch(_) => FailureClass::Mismatch,
            SimErrorKind::Toolchain { .. } => FailureClass::Toolchain,
            SimErrorKind::ChainExhausted(errors) => errors
                .last()
                .map(SimError::class)
                .unwrap_or(FailureClass::Structural),
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}", self.phase)?;
        if let Some(engine) = self.engine {
            write!(f, "/{engine}")?;
        }
        if let Some(circuit) = &self.circuit {
            write!(f, " on {circuit}")?;
        }
        write!(f, "] ")?;
        match &self.kind {
            SimErrorKind::Parse(err) => write!(f, "{err}"),
            SimErrorKind::Build(err) => write!(f, "{err}"),
            SimErrorKind::Structural(err) => write!(f, "{err}"),
            SimErrorKind::UnknownMonitor => write!(f, "monitored net does not exist"),
            SimErrorKind::PinCountOverflow { pins } => write!(
                f,
                "netlist has {pins} gate pins, more than a compiled program can address"
            ),
            SimErrorKind::Budget(err) => write!(f, "{err}"),
            SimErrorKind::EnginePanicked { message } => {
                write!(f, "engine panicked (contained): {message}")
            }
            SimErrorKind::VectorWidth { expected, got } => write!(
                f,
                "input vector has {got} bits but the circuit has {expected} primary inputs"
            ),
            SimErrorKind::Cancelled {
                cause,
                vectors_done,
            } => write!(f, "run stopped ({cause}) after {vectors_done} vectors"),
            SimErrorKind::Mismatch(err) => write!(f, "{err}"),
            SimErrorKind::Toolchain { message } => {
                write!(f, "native toolchain unavailable or failed: {message}")
            }
            SimErrorKind::ChainExhausted(errors) => {
                write!(f, "every engine in the fallback chain failed:")?;
                for err in errors {
                    write!(f, "\n  {err}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<ParseError> for SimError {
    fn from(err: ParseError) -> Self {
        SimError::new(SimErrorKind::Parse(err), SimPhase::Parse)
    }
}

impl From<BuildError> for SimError {
    fn from(err: BuildError) -> Self {
        SimError::new(SimErrorKind::Build(err), SimPhase::Build)
    }
}

impl From<LevelizeError> for SimError {
    fn from(err: LevelizeError) -> Self {
        SimError::new(SimErrorKind::Structural(err), SimPhase::Levelize)
    }
}

impl From<LimitExceeded> for SimError {
    fn from(err: LimitExceeded) -> Self {
        SimError::new(SimErrorKind::Budget(err), SimPhase::Compile)
    }
}

impl From<Mismatch> for SimError {
    fn from(err: Mismatch) -> Self {
        SimError::new(SimErrorKind::Mismatch(err), SimPhase::CrossCheck)
    }
}

impl From<uds_pcset::CompileError> for SimError {
    fn from(err: uds_pcset::CompileError) -> Self {
        let kind = match err {
            uds_pcset::CompileError::Levelize(e) => SimErrorKind::Structural(e),
            uds_pcset::CompileError::UnknownMonitor => SimErrorKind::UnknownMonitor,
            uds_pcset::CompileError::Limit(e) => SimErrorKind::Budget(e),
        };
        SimError::new(kind, SimPhase::Compile).with_engine(Engine::PcSet)
    }
}

impl From<uds_eventsim::ZeroDelayCompileError> for SimError {
    fn from(err: uds_eventsim::ZeroDelayCompileError) -> Self {
        let kind = match err {
            uds_eventsim::ZeroDelayCompileError::Levelize(e) => SimErrorKind::Structural(e),
            uds_eventsim::ZeroDelayCompileError::PinCountOverflow { pins } => {
                SimErrorKind::PinCountOverflow { pins }
            }
        };
        SimError::new(kind, SimPhase::Compile)
    }
}

impl From<uds_parallel::CompileError> for SimError {
    fn from(err: uds_parallel::CompileError) -> Self {
        let kind = match err {
            uds_parallel::CompileError::Levelize(e) => SimErrorKind::Structural(e),
            uds_parallel::CompileError::Limit(e) => SimErrorKind::Budget(e),
        };
        SimError::new(kind, SimPhase::Compile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uds_netlist::{Resource, ResourceLimits};

    #[test]
    fn classes_map_to_distinct_exit_codes() {
        let classes = [
            FailureClass::Usage,
            FailureClass::Parse,
            FailureClass::Structural,
            FailureClass::Budget,
            FailureClass::Panic,
            FailureClass::Mismatch,
            FailureClass::Toolchain,
        ];
        let mut codes: Vec<i32> = classes.iter().map(|c| c.exit_code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), classes.len(), "exit codes must be distinct");
        assert!(!codes.contains(&0), "0 is success");
        assert!(!codes.contains(&1), "1 is reserved for unexpected errors");
    }

    #[test]
    fn budget_error_carries_context() {
        let limit = ResourceLimits {
            max_depth: Some(1),
            ..ResourceLimits::unlimited()
        }
        .check_depth(9)
        .unwrap_err();
        let err = SimError::from(limit)
            .with_engine(Engine::Parallel)
            .with_circuit("c17");
        assert_eq!(err.class(), FailureClass::Budget);
        let text = err.to_string();
        assert!(text.contains("compile"), "{text}");
        assert!(text.contains("parallel"), "{text}");
        assert!(text.contains("c17"), "{text}");
        assert!(text.contains("depth"), "{text}");
        match err.kind {
            SimErrorKind::Budget(l) => assert_eq!(l.resource, Resource::Depth),
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn chain_exhausted_takes_last_class() {
        let panic_err = SimError::new(
            SimErrorKind::EnginePanicked {
                message: "boom".into(),
            },
            SimPhase::Run,
        );
        let cycle = uds_netlist::LevelizeError::Cycle {
            unordered_gates: vec![],
        };
        let structural = SimError::from(cycle);
        let chain = SimError::new(
            SimErrorKind::ChainExhausted(vec![panic_err, structural]),
            SimPhase::Compile,
        );
        assert_eq!(chain.class(), FailureClass::Structural);
    }
}
