//! # `ic-apps` — the paper's applicative computations, executed
//!
//! Each module takes one of the computations the paper uses to motivate
//! a dag family, builds the family's dag, attaches real task semantics,
//! executes it (sequentially in schedule order, or in parallel through
//! `ic-exec`), and checks the result against an independent reference:
//!
//! | module | computation | paper section |
//! |---|---|---|
//! | [`integration`] | adaptive-quadrature numerical integration (Trapezoid & Simpson) over an irregular diamond dag | §3.2 |
//! | [`wavefront`] | wavefront recurrences (Pascal's triangle, custom stencils) over out-meshes | §4 |
//! | [`sorting`] | comparator-network (bitonic) sorting | §5.2 |
//! | [`fft`], [`poly`] | FFT over the butterfly network; polynomial multiplication by convolution | §5.2 |
//! | [`scan`] | parallel prefix over any associative op: integer powers, complex powers, boolean-matrix powers | §6.1 |
//! | [`dlt`] | the Discrete Laplace Transform, by both generation strategies | §6.2.1 |
//! | [`graphpaths`] | all path lengths in a graph via logical matrix powers | §6.2.2 |
//! | [`matmul`] | recursive 2×2 block matrix multiplication | §7 |
//!
//! Shared numeric scaffolding (complex arithmetic, boolean matrices)
//! lives in [`numeric`].

#![forbid(unsafe_code)]

pub mod adder;
pub mod dlt;
pub mod fft;
pub mod graphpaths;
pub mod integration;
pub mod matmul;
pub mod numeric;
pub mod poly;
pub mod scan;
pub mod sorting;
pub mod wavefront;
