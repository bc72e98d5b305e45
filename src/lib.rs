//! # rainshine
//!
//! A Rust reproduction of *"Rain or Shine? — Making Sense of Cloudy
//! Reliability Data"* (ICDCS 2017): a multi-factor failure-analysis framework
//! for cloud datacenters, together with the generative datacenter simulator
//! and statistics/CART substrates it needs.
//!
//! This meta-crate re-exports the workspace crates under stable module names:
//!
//! * [`parallel`] — deterministic parallel-execution layer ([`parallel::Parallelism`])
//! * [`obs`] — offline structured observability: spans, counters, run reports ([`obs::Obs`])
//! * [`stats`] — statistics substrate (ECDF, distributions, survival, …)
//! * [`telemetry`] — data model: columnar frames, calendar, RMA tickets, λ/μ metrics
//! * [`dcsim`] — generative fleet simulator (topology, climate, hazards, tickets)
//! * [`cart`] — classification and regression trees + stratified `N(·)` normalization
//! * [`analysis`] — the paper's framework: Q1 spares, Q2 SKUs, Q3 environment, TCO
//!
//! # Quickstart
//!
//! ```
//! use rainshine::dcsim::{FleetConfig, Simulation};
//!
//! // A small deterministic fleet: simulate six months and count tickets.
//! let config = FleetConfig::small();
//! let output = Simulation::new(config, 42).run();
//! assert!(!output.tickets.is_empty());
//! ```

pub use rainshine_cart as cart;
pub use rainshine_core as analysis;
pub use rainshine_dcsim as dcsim;
pub use rainshine_obs as obs;
pub use rainshine_parallel as parallel;
pub use rainshine_stats as stats;
pub use rainshine_telemetry as telemetry;
