//! Analysis-stage benchmarks: Q1 provisioning, the Q2 stratified effect,
//! Q3 environmental discovery and rack-day table assembly.

use criterion::{criterion_group, criterion_main, Criterion};
use rainshine_cart::params::CartParams;
use rainshine_cart::pdp::stratified_effect_nominal;
use rainshine_core::dataset::{rack_day_table, FaultFilter};
use rainshine_core::q1::{provision_servers, ProvisionParams};
use rainshine_core::q3::{dc_subset, env_analysis};
use rainshine_dcsim::{FleetConfig, Simulation, SimulationOutput};
use rainshine_telemetry::ids::Workload;
use rainshine_telemetry::rma::HardwareFault;
use rainshine_telemetry::schema::columns;
use rainshine_telemetry::time::TimeGranularity;

fn sim() -> SimulationOutput {
    Simulation::new(FleetConfig::medium(), 42).run()
}

fn bench_q1(c: &mut Criterion) {
    let out = sim();
    let mut group = c.benchmark_group("q1_provision");
    group.sample_size(20);
    for (name, granularity) in
        [("daily", TimeGranularity::Daily), ("hourly", TimeGranularity::Hourly)]
    {
        group.bench_function(name, |b| {
            b.iter(|| {
                provision_servers(&out, Workload::W6, &ProvisionParams::new(1.0, granularity))
                    .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_q2_stratified(c: &mut Criterion) {
    let out = sim();
    let table = rack_day_table(&out, FaultFilter::AllHardware, 2).unwrap();
    let cart = CartParams::default().with_min_sizes(200, 100).with_cp(0.002);
    let mut group = c.benchmark_group("q2");
    group.sample_size(10);
    group.bench_function("stratified_effect", |b| {
        b.iter(|| {
            stratified_effect_nominal(
                &table,
                columns::FAILURE_RATE,
                columns::SKU,
                rainshine_core::q2::MF_CONTROLS,
                &cart,
            )
            .unwrap()
        })
    });
    group.finish();
}

fn bench_q3(c: &mut Criterion) {
    let out = sim();
    let disk = rack_day_table(&out, FaultFilter::Component(HardwareFault::Disk), 2).unwrap();
    let dc1 = dc_subset(&disk, "DC1").unwrap();
    let cart = CartParams::default().with_min_sizes(400, 200).with_cp(0.002);
    let mut group = c.benchmark_group("q3");
    group.sample_size(10);
    group.bench_function("env_analysis_dc1", |b| {
        b.iter(|| env_analysis("DC1", &dc1, &cart).unwrap())
    });
    group.finish();
}

fn bench_dataset_assembly(c: &mut Criterion) {
    let out = sim();
    let mut group = c.benchmark_group("dataset");
    group.sample_size(10);
    group.bench_function("rack_day_table", |b| {
        b.iter(|| rack_day_table(&out, FaultFilter::AllHardware, 1).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_q1, bench_q2_stratified, bench_q3, bench_dataset_assembly);
criterion_main!(benches);
