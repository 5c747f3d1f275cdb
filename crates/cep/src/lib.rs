//! `cep` — a complex event processing engine.
//!
//! ERMS distinguishes hot / cooled / normal / cold data **in real time**
//! by streaming HDFS audit-log records through a CEP engine (paper
//! Section III.C). This crate is that engine:
//!
//! * [`event`] — timestamped events with typed fields,
//! * [`query`] — the judge's continuous query: events of one type
//!   counted per group over a sliding **time window** (`win:time(t_w)`),
//!   optionally with a nested count per second field, kept incrementally
//!   per arriving event,
//! * `window` (crate-private) — the sliding time window every query
//!   keeps its entries in, and the one place its boundary rule lives,
//! * [`engine`] — registration, event routing and polled reads,
//! * [`audit`] — the HDFS audit-log parser (the paper's hand-written
//!   "log parser" that turns raw log lines into CEP events).
//!
//! The engine is single-threaded and driven by the simulation clock;
//! determinism matters more here than parallel throughput, and the
//! throughput benches show it comfortably exceeds the audit-log rates a
//! simulated cluster generates.
//!
//! ```
//! use cep::{CepEngine, QuerySpec};
//! use simcore::{SimDuration, SimTime};
//!
//! let mut engine = CepEngine::new();
//! // opens per file over the last minute — the judge's query shape
//! let per_file = engine.register(QuerySpec::count_per_group(
//!     "audit",
//!     "src",
//!     SimDuration::from_secs(60),
//! ));
//! // the paper's pipeline: raw HDFS audit text → parser → CEP
//! let line = "12.5 FSNamesystem.audit: allowed=true ugi=alice \
//!             ip=/10.0.0.7 cmd=open src=/data/f dst=null perm=null";
//! let event = cep::audit::parse_line(line).unwrap();
//! engine.push(&event);
//! assert_eq!(engine.value_for(per_file, SimTime::from_secs(13), "/data/f"), 1.0);
//! ```

pub mod audit;
pub mod engine;
pub mod event;
pub mod fnv;
pub mod query;
mod window;

pub use engine::{CepEngine, QueryId};
pub use event::{Event, Value};
pub use query::QuerySpec;
