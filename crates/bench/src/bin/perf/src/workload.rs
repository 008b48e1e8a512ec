//! The six workloads: their data, options and query streams, the fixture a
//! run drives, and the reference answers the correctness gate compares to.
//!
//! Everything is generated from `--seed`; the program under test sees only
//! the generated sources and query texts.

use crate::stats::{digest, Zipf};
use crate::trace::{SpanLog, TimedWrapper};
use medmaker::externals::standard_registry;
use medmaker::{CacheOptions, Mediator, MediatorOptions};
use medmaker_server::{Server, ServerHandle, ServerOptions};
use oem::printer::print_store;
use oem::Symbol;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use wrappers::scenario::MS1;
use wrappers::workload::PersonWorkload;
use wrappers::{FaultInjectingWrapper, FaultPlan, Wrapper};

/// The mediator's name in every workload (`...@med`).
pub const MEDIATOR: &str = "med";

/// Operations in one pass of a query stream; a run cycles through it.
const STREAM_LEN: usize = 4096;

/// `cache_churn` reports a scoped source change after every this many
/// operations.
pub const DELTA_EVERY: u64 = 200;

/// One of the six workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Uncached one-object lookups.
    PointCold,
    /// Uncached scan of the whole view.
    ScanJoin,
    /// Bind-join fan-out against sources with real latency.
    SlowSource,
    /// Cached lookups whose working set fits.
    CacheReplay,
    /// Cached lookups whose working set does not fit, with invalidation.
    CacheChurn,
    /// Cached lookups over HTTP on loopback.
    ServedHttp,
}

impl Kind {
    /// Every workload, in the catalog's order.
    pub const ALL: [Kind; 6] = [
        Kind::PointCold,
        Kind::ScanJoin,
        Kind::SlowSource,
        Kind::CacheReplay,
        Kind::CacheChurn,
        Kind::ServedHttp,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Kind::PointCold => "point_cold",
            Kind::ScanJoin => "scan_join",
            Kind::SlowSource => "slow_source",
            Kind::CacheReplay => "cache_replay",
            Kind::CacheChurn => "cache_churn",
            Kind::ServedHttp => "served_http",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Persons in the whois source.
    fn people(self) -> usize {
        match self {
            Kind::SlowSource => 40,
            Kind::ServedHttp => 200,
            // Half the others' size: the containment tail this workload
            // is here to show grows with the square of the source, and
            // at 1000 leaves too few queries per window for a steady tail.
            Kind::CacheReplay => 500,
            _ => 1000,
        }
    }

    /// Consecutive operations in one block of the end-to-end summary
    /// ([`crate::drive::summarise`]): short enough to fit into a quiet
    /// stretch of the machine, which may last a tenth of a second, and
    /// long enough to hold the workload's mix. `point_cold` sends one LOREL
    /// query in eight; `cache_replay` alternates between plans in a cycle
    /// of 12 operations, a third of them slow, and its block holds four
    /// cycles; a block of `served_http` is 16 requests of either client.
    pub fn block(self) -> usize {
        match self {
            Kind::ServedHttp => 32,
            Kind::CacheReplay => 48,
            _ => 8,
        }
    }

    /// Whether the answer cache is on, so that the mediator can only be
    /// driven whole (`query_rule`) and not stage by stage.
    pub fn cached(self) -> bool {
        matches!(
            self,
            Kind::CacheReplay | Kind::CacheChurn | Kind::ServedHttp
        )
    }

    /// `MediatorOptions::default()` except as the workload states.
    fn options(self, cache_dir: Option<PathBuf>) -> MediatorOptions {
        let mut o = MediatorOptions::default();
        match self {
            Kind::PointCold | Kind::ScanJoin => {}
            Kind::SlowSource => {
                // Pinned to the bind join the cost model picks once it has
                // learned the sources' latency: with learning on, the plan
                // depends on how far the latency EWMA has moved.
                o.learn_stats = false;
                o.planner.prefer_bind_join = Some(true);
            }
            Kind::CacheReplay => o.cache = CacheOptions::enabled(),
            Kind::CacheChurn => {
                o.learn_stats = false;
                o.cache = CacheOptions {
                    enabled: true,
                    capacity: 8,
                    cache_dir,
                    ..CacheOptions::default()
                };
            }
            Kind::ServedHttp => {
                o.learn_stats = false;
                o.cache = CacheOptions::enabled();
            }
        }
        o
    }
}

/// One distinct query of a stream.
pub struct Query {
    /// MSL or LOREL text, as a user would type it.
    pub text: String,
    /// Whether `text` is LOREL.
    pub lorel: bool,
    /// Queries of one class differ only in a constant, so one plan should
    /// serve them all.
    pub class: &'static str,
}

impl Query {
    /// Parse (MSL) or compile (LOREL) the text into a rule.
    pub fn to_rule(&self) -> Result<msl::Rule, String> {
        if self.lorel {
            lorel::to_msl(&self.text, MEDIATOR).map_err(|e| e.to_string())
        } else {
            msl::parse_query(&self.text).map_err(|e| e.to_string())
        }
    }
}

/// A query stream: the distinct queries and the order they are sent in.
pub struct Stream {
    /// Distinct queries.
    pub queries: Vec<Query>,
    /// One pass of the stream, as indices into `queries`.
    pub ops: Vec<usize>,
}

fn point(name: &str) -> Query {
    Query {
        text: format!("P :- P:<cs_person {{<name '{name}'>}}>@{MEDIATOR}"),
        lorel: false,
        class: "point.msl",
    }
}

/// `count` distinct persons that appear in both sources (the first
/// `overlap * n`), so that every lookup has an answer.
fn pool(rng: &mut StdRng, kind: Kind, count: usize) -> Vec<String> {
    let joined = (PersonWorkload::default().overlap * kind.people() as f64) as usize;
    let mut ids: Vec<usize> = (0..joined).collect();
    for i in 0..count.min(joined) {
        let j = rng.gen_range(i..joined);
        ids.swap(i, j);
    }
    ids.truncate(count);
    ids.into_iter().map(PersonWorkload::full_name_of).collect()
}

/// The query stream of `kind` under `seed`.
pub fn stream(kind: Kind, seed: u64) -> Stream {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let single = |text: &str, class| Stream {
        queries: vec![Query {
            text: text.to_string(),
            lorel: false,
            class,
        }],
        ops: vec![0],
    };
    match kind {
        Kind::ScanJoin => single("P :- P:<cs_person {}>@med", "scan"),
        Kind::SlowSource => single("P :- P:<cs_person {<rel 'student'>}>@med", "rel"),
        Kind::PointCold => {
            // Uniform over 64 persons drawn from all 500 joinable ones;
            // the cache is off, so a repeated name costs what a new one
            // does. Every 8th query is LOREL, over the first 16 names.
            let names = pool(&mut rng, kind, 64);
            let mut queries: Vec<Query> = names.iter().map(|n| point(n)).collect();
            queries.extend(names.iter().take(16).map(|n| Query {
                text: format!("select * from cs_person P where P.name = '{n}'"),
                lorel: true,
                class: "point.lorel",
            }));
            let ops = (0..STREAM_LEN)
                .map(|i| {
                    if i % 8 == 7 {
                        64 + rng.gen_range(0..16)
                    } else {
                        rng.gen_range(0..64)
                    }
                })
                .collect();
            Stream { queries, ops }
        }
        Kind::CacheReplay | Kind::CacheChurn | Kind::ServedHttp => {
            let names = pool(
                &mut rng,
                kind,
                match kind {
                    Kind::CacheChurn => 100,
                    Kind::ServedHttp => 32,
                    _ => 64,
                },
            );
            let zipf = Zipf::new(names.len());
            let ops = (0..STREAM_LEN)
                .map(|_| match kind {
                    Kind::ServedHttp => rng.gen_range(0..names.len()),
                    _ => zipf.sample(&mut rng),
                })
                .collect();
            Stream {
                queries: names.iter().map(|n| point(n)).collect(),
                ops,
            }
        }
    }
}

/// The two sources of `kind` under `seed`, undecorated.
fn sources(kind: Kind, seed: u64) -> Vec<Arc<dyn Wrapper>> {
    let (whois, cs) = PersonWorkload {
        n_whois: kind.people(),
        seed,
        ..PersonWorkload::default()
    }
    .build();
    vec![Arc::new(whois), Arc::new(cs)]
}

/// What the correctness gate knows about one distinct query.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Reference {
    /// Digest of the printed answer.
    pub digest: u64,
    /// Top-level objects in the answer.
    pub objects: usize,
}

impl Reference {
    /// The reference form of a printed answer.
    pub fn of(answer: &str, objects: usize) -> Reference {
        Reference {
            digest: digest(answer.as_bytes()),
            objects,
        }
    }
}

/// Reference answers, one per distinct query: computed on a fresh mediator
/// over the same data with the cache off, one thread and no learning.
pub fn references(kind: Kind, seed: u64, stream: &Stream) -> Result<Vec<Reference>, String> {
    let options = MediatorOptions {
        learn_stats: false,
        ..MediatorOptions::default()
    };
    let med = Mediator::new_with_options(
        MEDIATOR,
        MS1,
        sources(kind, seed),
        standard_registry(),
        options,
    )
    .map_err(|e| e.to_string())?;
    stream
        .queries
        .iter()
        .map(|q| {
            let out = med.query_rule(&q.to_rule()?).map_err(|e| e.to_string())?;
            let objects = out.results.top_level().len();
            if objects == 0 {
                return Err(format!("reference answer to `{}` is empty", q.text));
            }
            Ok(Reference::of(&print_store(&out.results), objects))
        })
        .collect()
}

/// Everything one run drives: the mediator, and for `served_http` the
/// server in front of it.
pub struct Fixture {
    /// The workload this was built for.
    pub kind: Kind,
    /// The mediator under test.
    pub mediator: Arc<Mediator>,
    /// Its sources by name, as the staged driver hands them to the
    /// planner and the executor.
    pub sources: HashMap<Symbol, Arc<dyn Wrapper>>,
    /// Its options.
    pub options: MediatorOptions,
    /// The server, when the workload is served.
    pub server: Option<ServerHandle>,
    cache_dir: Option<PathBuf>,
}

/// What building a fixture cost.
#[derive(Clone, Copy, Debug)]
pub struct SetupCost {
    /// All of set-up, seconds.
    pub setup_s: f64,
    /// `Mediator::new_with_options` alone (parse, lint, specflow), ms.
    pub mediator_new_ms: f64,
}

impl Fixture {
    /// Set `kind` up: generate the data, build and decorate the wrappers,
    /// build the mediator, start the server, prime the cache. `scratch` is
    /// a directory this fixture may create its warm tier under. With a
    /// span log, every source is wrapped in a [`TimedWrapper`].
    pub fn build(
        kind: Kind,
        seed: u64,
        stream: &Stream,
        scratch: &Path,
        log: Option<&Arc<SpanLog>>,
    ) -> Result<(Fixture, SetupCost), String> {
        let started = Instant::now();
        let mut wrappers = sources(kind, seed);
        if kind == Kind::SlowSource {
            for w in &mut wrappers {
                let plan = FaultPlan::none().latency_ms(1);
                *w = Arc::new(FaultInjectingWrapper::new(Arc::clone(w), plan));
            }
        }
        if let Some(log) = log {
            for w in &mut wrappers {
                *w = Arc::new(TimedWrapper::new(Arc::clone(w), Arc::clone(log)));
            }
        }
        let cache_dir = if kind == Kind::CacheChurn {
            let dir = scratch.join("warm");
            // A fresh warm tier: nothing a previous fixture wrote survives.
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            Some(dir)
        } else {
            None
        };
        let options = kind.options(cache_dir.clone());
        let new_started = Instant::now();
        let mediator = Mediator::new_with_options(
            MEDIATOR,
            MS1,
            wrappers.clone(),
            standard_registry(),
            options.clone(),
        )
        .map_err(|e| e.to_string())?;
        let mediator_new_ms = new_started.elapsed().as_secs_f64() * 1e3;
        let mediator = Arc::new(mediator);
        let server = if kind == Kind::ServedHttp {
            Some(Server::start(
                Arc::clone(&mediator),
                ServerOptions::default(),
            )?)
        } else {
            None
        };
        // Every cached workload starts on a cache that has seen its whole
        // working set: set-up runs each distinct query once.
        if kind.cached() {
            for q in &stream.queries {
                mediator
                    .query_rule(&q.to_rule()?)
                    .map_err(|e| format!("priming `{}`: {e}", q.text))?;
            }
        }
        let cost = SetupCost {
            setup_s: started.elapsed().as_secs_f64(),
            mediator_new_ms,
        };
        let fixture = Fixture {
            kind,
            mediator,
            sources: wrappers.into_iter().map(|w| (w.name(), w)).collect(),
            options,
            server,
            cache_dir,
        };
        Ok((fixture, cost))
    }

    /// Shut the server down and remove the warm tier.
    pub fn close(mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        if let Some(dir) = self.cache_dir.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        for kind in Kind::ALL {
            let (a, b) = (stream(kind, 11), stream(kind, 11));
            assert_eq!(a.ops, b.ops, "{kind:?}");
            let texts = |s: &Stream| s.queries.iter().map(|q| q.text.clone()).collect::<Vec<_>>();
            assert_eq!(texts(&a), texts(&b), "{kind:?}");
            assert!(a.ops.iter().all(|&i| i < a.queries.len()));
            if a.queries.len() > 1 {
                assert_ne!(texts(&a), texts(&stream(kind, 12)), "{kind:?}");
                assert_eq!(a.ops.len(), STREAM_LEN);
            }
        }
    }

    #[test]
    fn point_cold_sends_every_eighth_query_as_lorel() {
        let s = stream(Kind::PointCold, 3);
        for (i, &q) in s.ops.iter().enumerate() {
            assert_eq!(s.queries[q].lorel, i % 8 == 7);
        }
        assert_eq!(s.queries.len(), 80);
    }

    #[test]
    fn churn_stream_is_skewed_over_more_names_than_fit() {
        let s = stream(Kind::CacheChurn, 3);
        assert_eq!(s.queries.len(), 100);
        let hottest = s.ops.iter().filter(|&&q| q == 0).count();
        assert!(hottest > STREAM_LEN / 8, "{hottest}");
    }

    #[test]
    fn names_round_trip() {
        for kind in Kind::ALL {
            assert_eq!(Kind::from_name(kind.name()), Some(kind));
            assert!(crate::catalog::workload(kind.name()).is_some());
        }
        assert_eq!(Kind::from_name("nope"), None);
    }
}
