//! `erasure` — the erasure-coding substrate ERMS applies to cold data.
//!
//! The paper encodes cold HDFS data with Reed–Solomon, keeping **one**
//! data replica and **four** coding parities (Section IV.B), which cuts
//! the 3× replication overhead while preserving reliability. This crate
//! implements that substrate from scratch:
//!
//! * [`gf256`] — arithmetic in GF(2^8) with log/exp tables,
//! * [`matrix`] — dense matrices over GF(2^8) with inversion,
//! * [`rs`] — a systematic Reed–Solomon coder `RS(k, m)` built from an
//!   extended-Vandermonde generator (any `k` of the `k+m` shards recover
//!   the data),
//! * [`recovery`] — erasure patterns, recovery plans and degraded reads,
//! * [`striping`] — mapping HDFS block groups onto code stripes and
//!   computing the storage overhead ERMS reports in Figure 5.
//!
//! Everything is single-threaded and deterministic.
//!
//! ```
//! use erasure::ReedSolomon;
//!
//! // the paper's cold tier: RS(10, 4) — any 4 losses recover
//! let rs = ReedSolomon::paper_cold_code();
//! let data: Vec<Vec<u8>> = (0..10).map(|i| vec![i as u8; 1024]).collect();
//! let parity = rs.encode(&data).unwrap();
//!
//! let mut shards: Vec<Option<Vec<u8>>> =
//!     data.iter().cloned().chain(parity).map(Some).collect();
//! shards[0] = None; // lose a data shard
//! shards[12] = None; // and a parity shard
//! rs.reconstruct(&mut shards).unwrap();
//! assert_eq!(shards[0].as_deref(), Some(&data[0][..]));
//! ```

pub mod gf256;
pub mod matrix;
pub mod recovery;
pub mod rs;
pub mod striping;

pub use recovery::{DecodeError, ErasurePattern};
pub use rs::ReedSolomon;
pub use striping::{StripeLayout, StripePlan};
