//! Parseable backend descriptor: the one way to name an execution
//! strategy, in process ([`crate::SolverOptions::backend`]), on the
//! command line and on the wire.
//!
//! [`BackendSpec`] has one `FromStr`/`Display` roundtrip and one
//! [`BackendSpec::to_backend`] `match` that builds the executor it
//! names:
//!
//! ```text
//! serial | rayon[:N] | barrier[:N] | async[:N] | worksteal[:N]
//!        | sharded[:N] | fleet[:N] | auto[:N]
//! ```
//!
//! An omitted `:N` means "backend default" (rayon's global pool, or the
//! host's available parallelism), and `Display` preserves the omission,
//! so `parse ∘ to_string` is the identity. The legacy bench-label form
//! `auto:<backend-name>` (an [`crate::AutoBackend`] that recorded its
//! pick) also parses, canonicalizing to plain `auto` — that is the
//! special case this type absorbs from `compare.rs`.
//!
//! `sharded` and `async` name one executor, [`StaleBoundedBackend`], at
//! staleness bound `k = 0` (bit-identical to serial) and `k = 1`
//! (convergent); every built executor's [`SweepExecutor::name`] is the
//! family that builds it.

use std::fmt;
use std::str::FromStr;

use crate::backend::{
    AutoBackend, BarrierBackend, RayonBackend, SerialBackend, SweepExecutor, WorkStealingBackend,
};
use crate::fleet::FleetBackend;
use crate::stale::StaleBoundedBackend;

/// Worker-count used when a spec omits `:N` and the backend needs a
/// concrete count.
pub(crate) fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(2)
}

/// Parseable descriptor of the built-in execution backends. See the
/// module docs for the grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendSpec {
    /// [`crate::SerialBackend`].
    #[default]
    Serial,
    /// [`crate::RayonBackend`]; `None` = rayon's global pool.
    Rayon {
        /// Worker count, `None` = the global pool.
        threads: Option<usize>,
    },
    /// [`crate::BarrierBackend`].
    Barrier {
        /// Worker count, `None` = available parallelism.
        threads: Option<usize>,
    },
    /// [`StaleBoundedBackend`] at staleness `k = 1` (convergent, not
    /// bit-identical).
    Async {
        /// Worker count, `None` = available parallelism.
        threads: Option<usize>,
    },
    /// [`crate::WorkStealingBackend`].
    WorkSteal {
        /// Worker count, `None` = available parallelism.
        threads: Option<usize>,
    },
    /// [`StaleBoundedBackend`] at staleness `k = 0` (bit-identical to
    /// serial).
    Sharded {
        /// Shard count, `None` = available parallelism.
        parts: Option<usize>,
    },
    /// [`crate::FleetBackend`].
    Fleet {
        /// Worker count, `None` = available parallelism.
        threads: Option<usize>,
    },
    /// [`crate::AutoBackend`] probe-and-lock selection.
    Auto {
        /// Worker count handed to the parallel candidates, `None` =
        /// available parallelism.
        threads: Option<usize>,
    },
}

/// The family names [`BackendSpec`] parses, in declaration order.
pub const BACKEND_FAMILIES: [&str; 8] = [
    "serial",
    "rayon",
    "barrier",
    "async",
    "worksteal",
    "sharded",
    "fleet",
    "auto",
];

impl BackendSpec {
    /// The spec's family name — the text form without any `:N` suffix.
    pub fn family(&self) -> &'static str {
        match self {
            BackendSpec::Serial => "serial",
            BackendSpec::Rayon { .. } => "rayon",
            BackendSpec::Barrier { .. } => "barrier",
            BackendSpec::Async { .. } => "async",
            BackendSpec::WorkSteal { .. } => "worksteal",
            BackendSpec::Sharded { .. } => "sharded",
            BackendSpec::Fleet { .. } => "fleet",
            BackendSpec::Auto { .. } => "auto",
        }
    }

    /// The explicit worker/shard count, if one was given.
    pub fn count(&self) -> Option<usize> {
        match *self {
            BackendSpec::Serial => None,
            BackendSpec::Rayon { threads }
            | BackendSpec::Barrier { threads }
            | BackendSpec::Async { threads }
            | BackendSpec::WorkSteal { threads }
            | BackendSpec::Fleet { threads }
            | BackendSpec::Auto { threads } => threads,
            BackendSpec::Sharded { parts } => parts,
        }
    }

    /// Constructs the backend this spec names, substituting the host's
    /// available parallelism for an omitted count (except `rayon`,
    /// whose `None` means the global pool).
    pub fn to_backend(&self) -> Box<dyn SweepExecutor> {
        let n = |t: Option<usize>| t.unwrap_or_else(default_threads);
        match *self {
            BackendSpec::Serial => Box::new(SerialBackend),
            BackendSpec::Rayon { threads } => Box::new(RayonBackend::new(threads)),
            BackendSpec::Barrier { threads } => Box::new(BarrierBackend::new(n(threads))),
            // One iteration of drift buys zero phase-waits while staying
            // close to the synchronous trajectory.
            BackendSpec::Async { threads } => Box::new(StaleBoundedBackend::new(n(threads), 1)),
            BackendSpec::WorkSteal { threads } => Box::new(WorkStealingBackend::new(n(threads))),
            BackendSpec::Sharded { parts } => Box::new(StaleBoundedBackend::new(n(parts), 0)),
            BackendSpec::Fleet { threads } => Box::new(FleetBackend::new(n(threads))),
            BackendSpec::Auto { threads } => Box::new(AutoBackend::new(n(threads))),
        }
    }
}

impl fmt::Display for BackendSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.count() {
            Some(n) => write!(f, "{}:{n}", self.family()),
            None => f.write_str(self.family()),
        }
    }
}

/// Error from parsing a [`BackendSpec`] string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBackendSpecError {
    input: String,
}

impl fmt::Display for ParseBackendSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown backend spec {:?}; expected one of {} with an optional :N worker count",
            self.input,
            BACKEND_FAMILIES.join(" | "),
        )
    }
}

impl std::error::Error for ParseBackendSpecError {}

impl FromStr for BackendSpec {
    type Err = ParseBackendSpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseBackendSpecError { input: s.into() };
        let (family, arg) = match s.split_once(':') {
            Some((f, a)) => (f, Some(a)),
            None => (s, None),
        };
        let count = match arg {
            None => None,
            Some(a) => match a.parse::<usize>() {
                Ok(n) if n >= 1 => Some(n),
                // The legacy recorded-pick label `auto:<backend>` from
                // AutoBackend bench rows: canonicalize to plain auto.
                _ if family == "auto" && BACKEND_FAMILIES.contains(&a) => {
                    return Ok(BackendSpec::Auto { threads: None });
                }
                _ => return Err(err()),
            },
        };
        match family {
            "serial" if count.is_none() => Ok(BackendSpec::Serial),
            "rayon" => Ok(BackendSpec::Rayon { threads: count }),
            "barrier" => Ok(BackendSpec::Barrier { threads: count }),
            "async" => Ok(BackendSpec::Async { threads: count }),
            "worksteal" => Ok(BackendSpec::WorkSteal { threads: count }),
            "sharded" => Ok(BackendSpec::Sharded { parts: count }),
            "fleet" => Ok(BackendSpec::Fleet { threads: count }),
            "auto" => Ok(BackendSpec::Auto { threads: count }),
            _ => Err(err()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_parse_roundtrip() {
        let specs = [
            BackendSpec::Serial,
            BackendSpec::Rayon { threads: None },
            BackendSpec::Rayon { threads: Some(4) },
            BackendSpec::Barrier { threads: Some(2) },
            BackendSpec::Async { threads: None },
            BackendSpec::Async { threads: Some(2) },
            BackendSpec::WorkSteal { threads: Some(8) },
            BackendSpec::Sharded { parts: None },
            BackendSpec::Sharded { parts: Some(3) },
            BackendSpec::Fleet { threads: None },
            BackendSpec::Auto { threads: Some(2) },
        ];
        for spec in specs {
            let text = spec.to_string();
            assert_eq!(text.parse::<BackendSpec>().unwrap(), spec, "{text}");
        }
    }

    #[test]
    fn every_family_name_parses_bare() {
        for family in BACKEND_FAMILIES {
            let spec: BackendSpec = family.parse().unwrap();
            assert_eq!(spec.family(), family);
            assert_eq!(spec.count(), None);
            assert_eq!(spec.to_string(), family);
        }
    }

    #[test]
    fn legacy_auto_pick_labels_canonicalize() {
        for label in ["auto:serial", "auto:worksteal", "auto:fleet"] {
            assert_eq!(
                label.parse::<BackendSpec>().unwrap(),
                BackendSpec::Auto { threads: None },
                "{label}"
            );
        }
        // Every pick a default AutoBackend can record parses back.
        let mut b = paradmm_graph::GraphBuilder::new(1);
        let v = b.add_var();
        b.add_factor(&[v]);
        let prox: Box<dyn paradmm_prox::ProxOp> =
            Box::new(paradmm_prox::QuadraticProx::isotropic(1, 2.0, &[1.0]));
        let problem = crate::AdmmProblem::new(b.build(), vec![prox], 1.0, 1.0);
        let mut store = paradmm_graph::VarStore::zeros(problem.graph());
        let mut auto = AutoBackend::new(2);
        auto.run_block(&problem, &mut store, 1, &mut crate::UpdateTimings::new());
        assert_eq!(auto.probe_report().len(), 6);
        for &(name, _) in auto.probe_report() {
            let label = format!("auto:{name}");
            assert_eq!(
                label.parse::<BackendSpec>(),
                Ok(BackendSpec::Auto { threads: None }),
                "{label}"
            );
        }
    }

    #[test]
    fn junk_rejected() {
        for junk in [
            "",
            "gpu",
            "serial:2",
            "worksteal:0",
            "worksteal:two",
            "rayon:-1",
            "auto:warp",
            "fleet[2t]",
            "batched[worksteal]",
        ] {
            assert!(junk.parse::<BackendSpec>().is_err(), "{junk:?}");
        }
    }

    #[test]
    fn resolves_to_matching_scheduler_and_backend() {
        assert_eq!(
            "worksteal:3".parse::<BackendSpec>().unwrap(),
            BackendSpec::WorkSteal { threads: Some(3) }
        );
        assert_eq!(
            "rayon".parse::<BackendSpec>().unwrap(),
            BackendSpec::Rayon { threads: None }
        );
        assert_eq!("sharded:4".parse::<BackendSpec>().unwrap().count(), Some(4));
        for family in BACKEND_FAMILIES {
            let spec: BackendSpec = family.parse().unwrap();
            assert_eq!(spec.to_backend().name(), family);
        }
    }

    #[test]
    fn descriptor_names_match_backends() {
        for family in BACKEND_FAMILIES {
            let bare: BackendSpec = family.parse().unwrap();
            assert_eq!(bare.to_backend().name(), family);
            if bare != BackendSpec::Serial {
                let counted: BackendSpec = format!("{family}:3").parse().unwrap();
                assert_eq!(counted.to_backend().name(), family);
            }
        }
    }
}
