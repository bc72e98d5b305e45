//! Frame-assembly bench (DESIGN.md §10.1): columnar assembly through
//! split-borrowed `ColumnBuilder`s (intern once per group, then
//! `push_code`/`push_f64`) against the row-oriented
//! `FrameBuilder::push_row` path, which allocates a `Vec<Value>` — and a
//! `String` per nominal cell — for every row. Both produce identical
//! frames; the ratio is the zero-copy emission win measured by the
//! dataset stages of `--report`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rainshine_telemetry::frame::{FeatureKind, Field, Frame, FrameBuilder, Schema, Value};

/// The shape of one synthetic rack-day-like record.
const SKUS: [&str; 7] = ["S1", "S2", "S3", "S4", "S5", "S6", "S7"];

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("sku", FeatureKind::Nominal),
        Field::new("age", FeatureKind::Continuous),
        Field::new("temp", FeatureKind::Continuous),
        Field::new("dow", FeatureKind::Ordinal),
        Field::new("y", FeatureKind::Continuous),
    ])
}

/// Row-oriented assembly: one `Vec<Value>` (with a fresh label `String`)
/// per row.
fn assemble_rows(rows: usize) -> Frame {
    let mut b = FrameBuilder::new(schema());
    for i in 0..rows {
        b.push_row(vec![
            Value::Nominal(SKUS[i % SKUS.len()].to_owned()),
            Value::Continuous((i % 60) as f64),
            Value::Continuous(55.0 + (i % 400) as f64 / 10.0),
            Value::Ordinal((i % 7) as i64),
            Value::Continuous((i % 5) as f64),
        ])
        .unwrap();
    }
    b.build().unwrap()
}

/// Columnar assembly: codes interned once, then straight buffer appends.
fn assemble_columns(rows: usize) -> Frame {
    let mut b = FrameBuilder::new(schema());
    b.reserve(rows);
    {
        let [sku, age, temp, dow, y] = b.columns_mut() else {
            unreachable!("schema above has 5 columns")
        };
        let codes: Vec<u32> = SKUS.iter().map(|label| sku.intern(label)).collect();
        for i in 0..rows {
            sku.push_code(codes[i % codes.len()]);
            age.push_f64((i % 60) as f64);
            temp.push_f64(55.0 + (i % 400) as f64 / 10.0);
            dow.push_i64((i % 7) as i64);
            y.push_f64((i % 5) as f64);
        }
    }
    b.build().unwrap()
}

fn bench_assembly(c: &mut Criterion) {
    // The two paths must agree before the timings mean anything.
    assert_eq!(assemble_rows(1000), assemble_columns(1000));
    let mut group = c.benchmark_group("frame_assembly");
    for rows in [10_000usize, 100_000] {
        group.bench_with_input(BenchmarkId::new("push_row", rows), &rows, |b, &rows| {
            b.iter(|| assemble_rows(rows))
        });
        group.bench_with_input(BenchmarkId::new("columnar", rows), &rows, |b, &rows| {
            b.iter(|| assemble_columns(rows))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_assembly);
criterion_main!(benches);
