//! End-to-end observability: run the real Stage 1 → 2 → 3 pipeline and
//! assert that the instrumented crates (queuesim, profiler, deepforest,
//! core) all report into the shared `stca-obs` registry, and that the
//! registry exports cleanly in both JSON and Prometheus formats.
//!
//! The registry is process-global, so everything lives in one test
//! function — parallel test threads would otherwise race on `clear()`.

use stca_repro::core::{ModelConfig, Predictor};
use stca_repro::obs;
use stca_repro::obs::metrics::Metric;
use stca_repro::profiler::executor::{ExperimentSpec, TestEnvironment};
use stca_repro::profiler::profile::{ProfileRow, ProfileSet};
use stca_repro::profiler::sampler::CounterOrdering;
use stca_repro::util::Rng64;
use stca_repro::workloads::{BenchmarkId, RuntimeCondition};

#[test]
fn pipeline_populates_metrics_across_crates() {
    obs::registry().clear();

    // Stage 1-2: profile a handful of conditions through the test
    // environment (drives cachesim, queuesim and profiler).
    let pair = (BenchmarkId::Kmeans, BenchmarkId::Bfs);
    let mut rng = Rng64::new(0x0B5);
    let mut set = ProfileSet::new();
    for i in 0..4 {
        let condition = RuntimeCondition::random_pair(pair.0, pair.1, &mut rng);
        let out = TestEnvironment::new(ExperimentSpec::quick(condition.clone(), 0x0B5 + i)).run();
        for (j, w) in out.workloads.iter().enumerate() {
            set.push(ProfileRow::from_outcome(
                &condition,
                j,
                w,
                CounterOrdering::Grouped,
            ));
        }
    }

    // Stage 3: train the deep-forest predictor and predict (drives
    // deepforest cascade/MGS and core).
    let predictor = Predictor::train(&set, &ModelConfig::quick(1));
    let pred = predictor.predict_response(&set.rows[0], pair.0);
    assert!(pred.mean_response > 0.0);

    let snap = obs::registry().snapshot();
    let names: Vec<&str> = snap.iter().map(|(n, _)| n.as_str()).collect();
    // one representative metric per instrumented crate
    for expect in [
        "queuesim.events_total",
        "profiler.experiments_total",
        "cachesim.accesses_total",
        "profiler.ea",
        "deepforest.cascade.fits_total",
        "core.predictor.trainings_total",
        "core.predictor.predictions_total",
    ] {
        assert!(
            names.contains(&expect),
            "missing metric {expect}; got {names:?}"
        );
    }

    // counters carry real work
    let get_counter = |want: &str| -> u64 {
        match snap.iter().find(|(n, _)| n == want) {
            Some((_, Metric::Counter(c))) => c.get(),
            other => panic!("{want} not a counter: {other:?}"),
        }
    };
    assert_eq!(get_counter("profiler.experiments_total"), 4);
    assert!(get_counter("queuesim.events_total") > 0);
    // each experiment's calibration runs alone simulate 24 queries of 400
    // accesses for each of its two stations
    assert!(get_counter("cachesim.accesses_total") > 4 * 2 * 24 * 400);
    assert_eq!(get_counter("core.predictor.trainings_total"), 1);

    // exports include every metric and stay well-formed
    let json = obs::registry().to_json();
    obs::json::Value::parse(&json).expect("metrics JSON parses back");
    for name in &names {
        assert!(json.contains(*name), "JSON export missing {name}");
    }
    let prom = obs::registry().to_prometheus();
    assert!(
        prom.contains("# TYPE"),
        "Prometheus export has TYPE headers"
    );
    assert!(
        prom.contains("stca_queuesim_events_total"),
        "sanitized name present:\n{prom}"
    );

    // the human summary table renders non-empty
    let table = obs::summary_table(obs::registry());
    assert!(
        table.contains("profiler.ea"),
        "summary table lists histograms:\n{table}"
    );
}
