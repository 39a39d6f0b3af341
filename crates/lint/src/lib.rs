//! `sqlarray-lint` — the repo-invariant static-analysis pass.
//!
//! The workspace's correctness story rests on a handful of invariants
//! that ordinary tests exercise but cannot *enforce*: parallel kernels
//! stay bit-identical to serial at any DOP, real summation routes
//! through the exactly-rounded accumulator, and storage arithmetic never
//! wraps. Each of those has been violated once (see `rules` for the
//! incident table); this crate makes the whole class mechanical. The
//! invariants a stock clippy lint already states (release builds keep
//! their guards, library code propagates typed errors, `unsafe` says why
//! it is sound) are left to clippy, set in each crate's manifest.
//!
//! It is deliberately dependency-free: a small hand-rolled lexer
//! ([`lexer`]) that understands raw strings, nested block comments and
//! char-vs-lifetime ticks; a per-file context ([`source`]) that strips
//! `#[cfg(test)]` regions and parses `// lint:allow(L0xx, reason = "…")`
//! suppressions; token-pattern rules ([`rules`]); and a workspace walker
//! ([`driver`]). Which `pub` items another compilation unit uses is left
//! to the compiler: [`reach`] narrows them all in a copy of the workspace
//! and lets `cargo check` give back the ones it needs.
//!
//! ```text
//! cargo run -p sqlarray-lint -- --deny-all            # CI gate
//! cargo run -p sqlarray-lint -- --reach               # unearned `pub` items
//! cargo run -p sqlarray-lint -- --format=json path…   # tooling
//! ```

#![forbid(unsafe_code)]

pub mod diag;
pub mod driver;
mod json;
pub mod lexer;
pub mod reach;
pub mod rules;
pub mod source;

pub use driver::lint_source;
pub use source::SourceFile;
