//! The repository's benchmark (declared in `../BENCHMARK.json`).
//!
//! Five workloads drive the far-memory stack through its public API
//! only, from benchmark-owned seeded inputs; `xfm-benchmark` measures
//! the end-to-end metrics untraced, `xfm-benchmark-trace` reruns the
//! workloads with spans recorded at the public trait seams and reports
//! the per-layer metrics. See `README.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod harness;
pub mod host;
pub mod keygen;
pub mod pagegen;
pub mod report;
pub mod rng;
pub mod spec;
pub mod stats;
pub mod workloads;
