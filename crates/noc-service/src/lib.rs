//! `nocd` — the online mapping service: streaming use-case admission
//! with incremental remapping.
//!
//! The batch flow maps a fixed set of use-cases offline; this crate
//! turns the same machinery into a long-running daemon. Use-cases
//! arrive and depart as line-protocol requests
//! ([`protocol`]), mutations are batched between reconfiguration
//! points, and each admission is placed **incrementally** by
//! [`nocmap::admit_group`] — greedy on free NIs, displacing blocking
//! placements under the `RemapConfig` eviction budget on conflict —
//! instead of re-solving the whole mapping ([`engine`]). The engine edits
//! its per-use-case state (use-cases, merged flows, route-cache rows,
//! the running solution) in place, so an admission costs the groups it
//! touches rather than the live population.
//!
//! Layering (the determinism contract): [`mod@replay`] feeds a seeded
//! request trace ([`trace`]) through the engine **in process** — its
//! transcript is a pure function of `(config, requests, seed)` and
//! byte-identical at any `noc-par` width, pinned by
//! `tests/service_determinism.rs` and the `service` registry suite in
//! `noc-flow`. The TCP daemon ([`net`]) is a thin transport over the
//! same `submit_line` entry point, so the socket path inherits the
//! replay-tested behavior verbatim (pinned by the loopback test).
//!
//! Resilience (PR 10): `fault link|ni` / `heal` / `health` verbs
//! inject deterministic link/NI failures and self-heal the live
//! mapping incrementally ([`nocmap::heal()`]); a crash-consistency
//! journal ([`mod@journal`], `serve --journal`) rebuilds byte-identical
//! engine state on restart; the client side is hardened with connect/
//! read timeouts and bounded deterministic retry ([`net::request`]).
//! See `docs/RESILIENCE.md`.
//!
//! # Quick example
//!
//! ```
//! use noc_service::{Engine, EngineConfig};
//!
//! let mut engine = Engine::new(EngineConfig::default()).unwrap();
//! let response = engine.submit_line("add u0 flow 0 1 200");
//! assert!(response.starts_with("ok queued seq=1"));
//! let response = engine.submit_line("stats");
//! assert!(response.contains("admitted=1"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod journal;
pub mod net;
pub mod protocol;
pub mod replay;
pub mod trace;

pub use engine::{AdmitMode, Engine, EngineConfig, ServiceStats};
pub use journal::{recover, Journal};
pub use net::{request, Client, RetryPolicy, Server};
pub use protocol::{parse_command, Command, FaultTarget, FlowSpec, ProtocolError};
pub use replay::{replay, replay_lines, Replay};
pub use trace::{generate_fault_trace, generate_trace};
