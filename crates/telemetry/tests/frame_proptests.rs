//! Property tests for frame assembly: the row-oriented
//! [`FrameBuilder::push_row`] path and the typed column pushes must build
//! the same frame (every value bit for bit, including NaN cells, the
//! column kinds, and the category dictionaries), and a frame must survive
//! a serialize/deserialize cycle.

use proptest::prelude::*;
use rainshine_telemetry::frame::{FeatureKind, Field, Frame, FrameBuilder, Schema, Value};

/// Label pool for nominal cells.
const LABELS: [&str; 5] = ["alpha", "beta", "gamma", "delta", "epsilon"];

/// Float pool for continuous cells; deliberately includes NaN, signed
/// zeros, and an extreme magnitude.
const FLOATS: [f64; 6] = [0.0, -0.0, -1.5, 3.25, 1e300, f64::NAN];

/// One generic generated cell, interpreted per the column's kind.
type CellSeed = (u8, u8, i64);

fn kind_of(code: u8) -> FeatureKind {
    match code % 3 {
        0 => FeatureKind::Continuous,
        1 => FeatureKind::Nominal,
        _ => FeatureKind::Ordinal,
    }
}

fn cell(kind: FeatureKind, (f_idx, l_idx, ord): CellSeed) -> Value {
    match kind {
        FeatureKind::Continuous => Value::Continuous(FLOATS[f_idx as usize % FLOATS.len()]),
        FeatureKind::Nominal => Value::Nominal(LABELS[l_idx as usize % LABELS.len()].to_owned()),
        FeatureKind::Ordinal => Value::Ordinal(ord),
    }
}

fn schema(kinds: &[u8]) -> Schema {
    Schema::new(
        kinds.iter().enumerate().map(|(i, &k)| Field::new(format!("c{i}"), kind_of(k))).collect(),
    )
}

/// Assembles a frame through the row-oriented builder from generic seeds.
fn build_rows(kinds: &[u8], rows: &[Vec<CellSeed>]) -> Frame {
    let mut builder = FrameBuilder::new(schema(kinds));
    for row in rows {
        let values = kinds.iter().zip(row).map(|(&k, &seed)| cell(kind_of(k), seed)).collect();
        builder.push_row(values).expect("generated row matches schema");
    }
    builder.build().expect("push_row keeps columns aligned")
}

/// Assembles the same frame column by column through the typed pushes.
fn build_columns(kinds: &[u8], rows: &[Vec<CellSeed>]) -> Frame {
    let mut builder = FrameBuilder::new(schema(kinds));
    for row in rows {
        for (column, (&k, &seed)) in builder.columns_mut().iter_mut().zip(kinds.iter().zip(row)) {
            match cell(kind_of(k), seed) {
                Value::Continuous(v) => column.push_f64(v),
                Value::Nominal(label) => column.push_label(&label),
                Value::Ordinal(v) => column.push_i64(v),
            }
        }
    }
    builder.build().expect("every column got one value per row")
}

/// Bit-level float slice equality: NaN == NaN, +0.0 != -0.0.
fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

proptest! {
    #[test]
    fn row_and_column_builders_agree(
        kinds in prop::collection::vec(0u8..3, 1..5),
        rows in prop::collection::vec(prop::collection::vec((0u8..8, 0u8..7, -3i64..7), 4), 0..25),
    ) {
        let by_rows = build_rows(&kinds, &rows);
        let by_columns = build_columns(&kinds, &rows);

        prop_assert_eq!(by_rows.schema(), by_columns.schema());
        prop_assert_eq!(by_rows.rows(), by_columns.rows());

        for (i, &k) in kinds.iter().enumerate() {
            let name = format!("c{i}");
            match kind_of(k) {
                FeatureKind::Continuous => {
                    let a = by_rows.continuous(&name).expect("continuous column");
                    let b = by_columns.continuous(&name).expect("continuous column");
                    prop_assert!(bits_equal(a, b), "column {} diverged", name);
                }
                FeatureKind::Nominal => {
                    prop_assert_eq!(
                        by_rows.nominal_codes(&name).expect("codes"),
                        by_columns.nominal_codes(&name).expect("codes")
                    );
                    prop_assert_eq!(
                        by_rows.categories(&name).expect("categories"),
                        by_columns.categories(&name).expect("categories")
                    );
                }
                FeatureKind::Ordinal => {
                    prop_assert_eq!(
                        by_rows.ordinal(&name).expect("ordinal column"),
                        by_columns.ordinal(&name).expect("ordinal column")
                    );
                }
            }
        }
    }

    #[test]
    fn roundtrip_survives_serialization(
        kinds in prop::collection::vec(0u8..3, 1..4),
        rows in prop::collection::vec(prop::collection::vec((1u8..5, 0u8..7, -3i64..7), 3), 1..15),
    ) {
        // Seeds start at 1 for the float index: serialized NaN is exercised
        // by the dedicated serde round-trip suite; here every cell must
        // compare equal after a serialize/deserialize cycle.
        let frame = build_rows(&kinds, &rows);
        let json = serde_json::to_string(&frame).expect("frame serializes");
        let back: Frame = serde_json::from_str(&json).expect("frame deserializes");
        prop_assert_eq!(&frame, &back);
    }
}
