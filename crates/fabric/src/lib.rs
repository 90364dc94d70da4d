//! Multi-process scenario fabric: sharded serving with model-routed
//! load balancing.
//!
//! The paper's airshed model ran on one fixed-size MPP. This crate is
//! the step from one box to many: a front-end process accepts scenario
//! jobs and routes each over TCP to one of N shard processes, each an
//! `airshed-server` [`ScenarioServer`](airshed_server::ScenarioServer)
//! behind one socket. Everything rides a hand-rolled
//! length-framed wire protocol ([`wire`], [`proto`]) — no serialization
//! dependencies, every `f64` crosses the wire as its exact bit pattern,
//! so a fabric run's reports are bit-identical to a single-process run.
//!
//! The interesting part is *where* jobs go. Each shard streams the
//! [`PerfModel`](airshed_core::PerfModel) a fresh numerics run
//! calibrated back to the front-end, which prices every incoming job
//! with its family's model on the job's own machine and routes to the
//! earliest predicted completion ([`router`]). Idle
//! shards steal queued work from loaded ones, and a shard that stops
//! heartbeating has its jobs re-routed — resuming from the hour
//! checkpoints its `Progress` reports carried, not from scratch.
//!
//! Layering (bottom up):
//!
//! | module       | job                                                    |
//! |--------------|--------------------------------------------------------|
//! | [`wire`]     | length-prefixed frames, typed framing errors           |
//! | [`proto`]    | [`Msg`] — the typed protocol, its layout declared once |
//! | [`router`]   | [`Router`], the front-end's state machine: session,    |
//! |              | routing, stealing, failover and results                |
//! | [`shard`]    | [`ShardCore`] state machine and its socket driver      |
//! | [`frontend`] | [`serve_batch`], the router's socket driver            |

pub mod frontend;
pub mod proto;
pub mod router;
pub mod shard;
pub mod wire;

pub use frontend::{serve_batch, FrontendOptions};
pub use proto::{report_fingerprint, Msg, ScenarioJob};
pub use router::{AllShardsLost, Event, FabricOutcome, Router, RouterConfig, ShardCounters, Step};
pub use shard::{run_shard, ShardCore, ShardEvent, ShardOptions, ShardStep};
