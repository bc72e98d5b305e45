//! Statistics substrate for the `rainshine` workspace.
//!
//! The paper this workspace reproduces (*"Rain or Shine? — Making Sense of
//! Cloudy Reliability Data"*, ICDCS 2017) leans on R's statistics stack for
//! its analysis. The Rust ecosystem offers no comparably complete offline
//! substitute, so this crate implements the required statistical machinery
//! from scratch:
//!
//! * descriptive statistics ([`describe`], [`running`]),
//! * empirical CDFs and quantiles ([`ecdf`]),
//! * histograms and binning ([`hist`]),
//! * random-variate distributions — Poisson, exponential, Weibull,
//!   log-normal, normal, Bernoulli, categorical ([`dist`]),
//! * impurity measures used by CART — Gini, entropy, variance ([`impurity`]),
//! * survival analysis — Kaplan–Meier, life-table hazards, Weibull MLE
//!   ([`survival`]),
//! * isotonic regression for monotone dose-response curves ([`timeseries`]),
//! * the log-gamma function backing the distributions ([`special`]).
//!
//! # Example
//!
//! ```
//! use rainshine_stats::ecdf::Ecdf;
//!
//! let ecdf = Ecdf::new(vec![3.0, 1.0, 4.0, 1.0, 5.0])?;
//! assert_eq!(ecdf.quantile(0.5), 3.0);
//! assert!((ecdf.eval(4.0) - 0.8).abs() < 1e-12);
//! # Ok::<(), rainshine_stats::StatsError>(())
//! ```

pub mod describe;
pub mod dist;
pub mod ecdf;
pub mod hist;
pub mod impurity;
pub mod running;
pub mod special;
pub mod survival;
pub mod timeseries;

mod error;

pub use error::StatsError;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StatsError>;
