//! The canonical candidate-feature schema (the paper's Table III).
//!
//! The analysis dataset assembled by `rainshine-core` uses these column
//! names; keeping them here makes the simulator, the dataset builder, and
//! the CART feature lists agree by construction.

use crate::frame::{FeatureKind, Field, Schema};

/// Canonical column names for the analysis dataset.
pub mod columns {
    /// Nominal: SKU (S1–S7).
    pub const SKU: &str = "sku";
    /// Continuous: equipment age in months at observation time.
    pub const AGE_MONTHS: &str = "age_months";
    /// Continuous: rack rated power in kW (4–15).
    pub const RATED_POWER_KW: &str = "rated_power_kw";
    /// Nominal: workload (W1–W7).
    pub const WORKLOAD: &str = "workload";
    /// Continuous: rack inlet temperature, °F (56–90).
    pub const TEMPERATURE_F: &str = "temperature_f";
    /// Continuous: relative humidity, % (5–87).
    pub const RELATIVE_HUMIDITY: &str = "relative_humidity";
    /// Nominal: datacenter (DC1, DC2).
    pub const DATACENTER: &str = "datacenter";
    /// Nominal: region within the datacenter.
    pub const REGION: &str = "region";
    /// Nominal: row of racks.
    pub const ROW: &str = "row";
    /// Nominal: rack id.
    pub const RACK: &str = "rack";
    /// Ordinal: day of week, Sunday = 0.
    pub const DAY_OF_WEEK: &str = "day_of_week";
    /// Ordinal: week of year, 1–53.
    pub const WEEK: &str = "week";
    /// Ordinal: month of year, 1–12.
    pub const MONTH: &str = "month";
    /// Ordinal: year offset from 2012, 0–2.
    pub const YEAR: &str = "year";
    /// Continuous response: failure count / rate for the observation window.
    pub const FAILURE_RATE: &str = "failure_rate";
}

/// One row of the printable Table III.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeatureDescription {
    /// Category grouping in Table III (Hardware / Workload / Env. / Space / Time).
    pub category: &'static str,
    /// Feature (column) name.
    pub name: &'static str,
    /// Feature kind.
    pub kind: FeatureKind,
    /// Human-readable value range.
    pub range: &'static str,
}

/// The full candidate-feature list of Table III, in paper order.
pub fn candidate_features() -> Vec<FeatureDescription> {
    use columns as c;
    use FeatureKind::{Continuous, Nominal, Ordinal};
    vec![
        FeatureDescription {
            category: "Hardware",
            name: c::SKU,
            kind: Nominal,
            range: "S1&3 storage, S2&4 compute, S5&6 mix, S7 HPC",
        },
        FeatureDescription {
            category: "Hardware",
            name: c::AGE_MONTHS,
            kind: Continuous,
            range: "0-5 years",
        },
        FeatureDescription {
            category: "Hardware",
            name: c::RATED_POWER_KW,
            kind: Continuous,
            range: "4-15 kW per rack",
        },
        FeatureDescription {
            category: "Workload",
            name: c::WORKLOAD,
            kind: Nominal,
            range: "W1&2 compute, W3 HPC, W4&7 storage-compute, W5&6 storage-data",
        },
        FeatureDescription {
            category: "Env.",
            name: c::TEMPERATURE_F,
            kind: Continuous,
            range: "56-90 F",
        },
        FeatureDescription {
            category: "Env.",
            name: c::RELATIVE_HUMIDITY,
            kind: Continuous,
            range: "5-87 %",
        },
        FeatureDescription {
            category: "Space",
            name: c::DATACENTER,
            kind: Nominal,
            range: "DC1, DC2",
        },
        FeatureDescription {
            category: "Space",
            name: c::REGION,
            kind: Nominal,
            range: "DC1:1-4, DC2:1-3",
        },
        FeatureDescription {
            category: "Space",
            name: c::ROW,
            kind: Nominal,
            range: "DC1:1-18, DC2:1-32",
        },
        FeatureDescription {
            category: "Space",
            name: c::RACK,
            kind: Nominal,
            range: "DC1:R1-331, DC2:R1-290",
        },
        FeatureDescription {
            category: "Time",
            name: c::DAY_OF_WEEK,
            kind: Ordinal,
            range: "Sun-Sat",
        },
        FeatureDescription { category: "Time", name: c::WEEK, kind: Ordinal, range: "1-52" },
        FeatureDescription { category: "Time", name: c::MONTH, kind: Ordinal, range: "Jan-Dec" },
        FeatureDescription { category: "Time", name: c::YEAR, kind: Ordinal, range: "0-2" },
    ]
}

/// The default analysis-dataset schema: every candidate feature plus the
/// continuous response column [`columns::FAILURE_RATE`].
pub fn analysis_schema() -> Schema {
    let mut fields: Vec<Field> =
        candidate_features().into_iter().map(|d| Field::new(d.name, d.kind)).collect();
    fields.push(Field::new(columns::FAILURE_RATE, FeatureKind::Continuous));
    Schema::new(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iii_has_fourteen_features() {
        assert_eq!(candidate_features().len(), 14);
    }

    #[test]
    fn analysis_schema_includes_response() {
        let s = analysis_schema();
        assert_eq!(s.len(), 15);
        assert!(s.index_of(columns::FAILURE_RATE).is_some());
        assert!(s.index_of(columns::SKU).is_some());
    }

    #[test]
    fn kinds_match_table_iii() {
        let feats = candidate_features();
        let kind_of = |n: &str| feats.iter().find(|f| f.name == n).unwrap().kind;
        assert_eq!(kind_of(columns::SKU), FeatureKind::Nominal);
        assert_eq!(kind_of(columns::AGE_MONTHS), FeatureKind::Continuous);
        assert_eq!(kind_of(columns::DAY_OF_WEEK), FeatureKind::Ordinal);
        assert_eq!(kind_of(columns::TEMPERATURE_F), FeatureKind::Continuous);
    }
}
