//! Run statistics, listed once: the struct, its defaults, the
//! [`FlatDdStats::to_json`] keys and the `sim.*` gauges are all generated
//! from the one field table below, so a new field reaches every output or
//! does not compile. A field a live `core.*` counter already reports, or
//! one that always reads 0, is `json` only: one name per fact.

use qdd::DdPackage;
use qtelemetry::MetricsRegistry;

/// How one table row is rendered.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum StatValue {
    /// Integer counter.
    Count(u64),
    /// Gate index that may be absent (`null` in JSON, `-1` as a gauge).
    OptCount(Option<usize>),
    /// Float (`null` in JSON when non-finite).
    Real(f64),
}

/// One row of the field table: name, value, and whether a `sim.<name>`
/// gauge is published for it.
pub(crate) type StatField = (&'static str, StatValue, bool);

/// Declares [`FlatDdStats`] from rows of
/// `name: type = default, rendering, gauge|json;` (`json` rows are
/// serialized but carry no gauge).
macro_rules! stats_table {
    (@gauge gauge) => { true };
    (@gauge json) => { false };
    ($($(#[$doc:meta])* $name:ident: $ty:ty = $default:expr, $kind:ident, $sink:ident;)*) => {
        /// Aggregate statistics of a FlatDD run.
        #[derive(Clone, Copy, Debug, PartialEq)]
        pub struct FlatDdStats {
            $($(#[$doc])* pub $name: $ty,)*
        }

        impl Default for FlatDdStats {
            fn default() -> Self {
                FlatDdStats { $($name: $default,)* }
            }
        }

        impl FlatDdStats {
            /// The field table, in declaration (= JSON key) order.
            pub(crate) fn fields(&self) -> Vec<StatField> {
                vec![$((
                    stringify!($name),
                    StatValue::$kind(self.$name as _),
                    stats_table!(@gauge $sink),
                ),)*]
            }
        }
    };
}

stats_table! {
    /// Gates executed in the DD phase.
    gates_dd: usize = 0, Count, json;
    /// DMAV multiplications executed (post-fusion matrices count once).
    gates_dmav: usize = 0, Count, json;
    /// Gate index after which the conversion happened (`None` = never).
    converted_at: Option<usize> = None, OptCount, gauge;
    /// Wall-clock seconds of the DD-to-array conversion.
    conversion_seconds: f64 = 0.0, Real, gauge;
    /// DMAVs that used the cached kernel (Algorithm 2). Always 0: the
    /// simulator runs Algorithm 1 only; kept for the checkpoint header and
    /// the stats JSON.
    cached_dmavs: usize = 0, Count, json;
    /// DMAVs that used the plain kernel (Algorithm 1): every DMAV.
    uncached_dmavs: usize = 0, Count, json;
    /// Total cache hits across cached DMAVs. Always 0, like
    /// `cached_dmavs`.
    cache_hits: usize = 0, Count, json;
    /// Matrices produced by fusion (0 when fusion is off).
    fused_matrices: usize = 0, Count, gauge;
    /// Total modeled DMAV cost accumulated: Eq. 5's `K1 / t` (MACs per
    /// group) per DMAV.
    modeled_cost: f64 = 0.0, Real, gauge;
    /// Largest state-vector DD observed during the DD phase.
    peak_state_dd_size: usize = 0, Count, gauge;
    /// DD-to-array conversions refused because the flat buffers would not
    /// fit in the memory budget (the run then stays in DD mode).
    conversion_refusals: usize = 0, Count, json;
    /// Times the memory-pressure degradation ladder (compute-table flush +
    /// GC + scratch release) ran in response to a budget breach.
    pressure_gcs: usize = 0, Count, json;
    /// DMAV plan-cache lookups answered by a memoized assignment (the
    /// recursive `Assign`/`AssignCache` descent was skipped).
    dmav_plan_hits: usize = 0, Count, gauge;
    /// DMAV plan-cache lookups that had to build a fresh assignment.
    dmav_plan_misses: usize = 0, Count, gauge;
    /// DD compute-table matrix-vector probes (since the last per-run reset).
    ct_mv_lookups: u64 = 0, Count, json;
    /// DD compute-table matrix-vector hits.
    ct_mv_hits: u64 = 0, Count, json;
    /// Matrix-vector hit ratio (`0.0` when there were no probes).
    ct_mv_hit_rate: f64 = 0.0, Real, gauge;
    /// DD compute-table matrix-matrix probes.
    ct_mm_lookups: u64 = 0, Count, json;
    /// DD compute-table matrix-matrix hits.
    ct_mm_hits: u64 = 0, Count, json;
    /// Matrix-matrix hit ratio.
    ct_mm_hit_rate: f64 = 0.0, Real, gauge;
    /// DD compute-table addition probes (vector + matrix adds).
    ct_add_lookups: u64 = 0, Count, json;
    /// DD compute-table addition hits.
    ct_add_hits: u64 = 0, Count, json;
    /// Addition hit ratio.
    ct_add_hit_rate: f64 = 0.0, Real, gauge;
    /// Times the approximation rung truncated the DD state under memory
    /// pressure (0 = the run is exact).
    approx_truncations: usize = 0, Count, json;
    /// Cumulative fidelity product across every approximation-rung
    /// truncation. Exactly `1.0` for exact runs; the governor aborts before
    /// this would drop below the configured floor.
    fidelity: f64 = 1.0, Real, gauge;
}

impl FlatDdStats {
    /// True when the approximation rung fired at least once, i.e. the
    /// result is an approximate state with [`Self::fidelity`] < 1 possible.
    pub fn is_approximate(&self) -> bool {
        self.approx_truncations > 0
    }

    /// Serializes the statistics as one stable JSON object (fields in
    /// declaration order plus the derived `approximate` key ahead of
    /// `fidelity`; `converted_at` is `null` when no conversion happened).
    /// This is what the CLI's `--stats-json` prints.
    pub fn to_json(&self) -> String {
        qtelemetry::json::render(|w| {
            w.begin_obj();
            for (name, value, _) in self.fields() {
                if name == "fidelity" {
                    w.key("approximate").bool(self.is_approximate());
                }
                match value {
                    StatValue::Count(v) => w.key(name).uint(v),
                    StatValue::OptCount(Some(g)) => w.key(name).uint(g as u64),
                    StatValue::OptCount(None) => w.key(name).null(),
                    StatValue::Real(v) => w.key(name).num(v),
                };
            }
            w.end_obj();
        })
    }

    /// Publishes the `sim.<name>` gauge of every table row that carries one.
    pub(crate) fn publish_gauges(&self, metrics: &MetricsRegistry) {
        for (name, value, gauge) in self.fields() {
            let v = match value {
                StatValue::Count(v) => v as f64,
                StatValue::OptCount(v) => v.map_or(-1.0, |g| g as f64),
                StatValue::Real(v) => v,
            };
            if gauge {
                metrics.gauge(&format!("sim.{name}")).set(v);
            }
        }
    }
}

/// Publishes the `dd.*` gauges of `pkg` into `metrics`: sizes, peaks and
/// memory, and what its sweeps and flushes did (the run's compute-table
/// traffic is in [`FlatDdStats`]). [`crate::FlatDdSimulator::publish_metrics`]
/// calls it for the simulator's package; any other owner of a package
/// (the CLI's `dd` engine) calls it for its own.
pub fn publish_package_metrics(pkg: &DdPackage, metrics: &MetricsRegistry) {
    let (s, m) = (pkg.stats(), metrics);
    m.gauge("dd.v_nodes").set(s.v_nodes as f64);
    m.gauge("dd.m_nodes").set(s.m_nodes as f64);
    m.gauge("dd.peak_v_nodes").set(s.peak_v_nodes as f64);
    m.gauge("dd.peak_m_nodes").set(s.peak_m_nodes as f64);
    m.gauge("dd.complex_values").set(s.complex_values as f64);
    m.gauge("dd.memory_bytes").set(s.memory_bytes as f64);
    m.gauge("dd.gc_sweeps").set(s.gc_sweeps as f64);
    m.gauge("dd.gc_nodes_freed").set(s.gc_nodes_freed as f64);
    m.gauge("dd.gc_values_freed").set(s.gc_values_freed as f64);
    m.gauge("dd.cache_flushes").set(s.cache_flushes as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtelemetry::json::Json;

    #[test]
    fn json_matches_the_golden_string() {
        let s = FlatDdStats {
            gates_dd: 3,
            converted_at: Some(2),
            conversion_seconds: 0.5,
            modeled_cost: f64::NAN,
            ct_mv_lookups: 7,
            ct_mv_hit_rate: 0.25,
            approx_truncations: 1,
            fidelity: 0.75,
            ..FlatDdStats::default()
        };
        assert_eq!(
            s.to_json(),
            "{\"gates_dd\":3,\"gates_dmav\":0,\"converted_at\":2,\
             \"conversion_seconds\":0.5,\"cached_dmavs\":0,\"uncached_dmavs\":0,\
             \"cache_hits\":0,\"fused_matrices\":0,\"modeled_cost\":null,\
             \"peak_state_dd_size\":0,\"conversion_refusals\":0,\"pressure_gcs\":0,\
             \"dmav_plan_hits\":0,\"dmav_plan_misses\":0,\"ct_mv_lookups\":7,\
             \"ct_mv_hits\":0,\"ct_mv_hit_rate\":0.25,\"ct_mm_lookups\":0,\
             \"ct_mm_hits\":0,\"ct_mm_hit_rate\":0,\"ct_add_lookups\":0,\
             \"ct_add_hits\":0,\"ct_add_hit_rate\":0,\"approx_truncations\":1,\
             \"approximate\":true,\"fidelity\":0.75}"
        );
        let d = FlatDdStats::default().to_json();
        assert!(d.contains("\"converted_at\":null,"), "{d}");
        assert!(d.ends_with("\"approximate\":false,\"fidelity\":1}"), "{d}");
        let v = qtelemetry::json::parse(&s.to_json()).unwrap();
        let field = |k: &str| v.get(k).cloned();
        assert_eq!(field("converted_at"), Some(Json::Num(2.0)));
        assert_eq!(
            field("modeled_cost"),
            Some(Json::Null),
            "NaN is written as null"
        );
        assert_eq!(field("approximate"), Some(Json::Bool(true)));
        assert_eq!(field("fidelity"), Some(Json::Num(0.75)));
    }

    /// What `flatdd-cli run ghz:8 --stats-json -` prints.
    #[test]
    fn ghz_run_json_matches_the_golden_string() {
        let cfg = crate::FlatDdConfig {
            threads: 1,
            governor: crate::GovernorConfig::unlimited(),
            ..Default::default()
        };
        let mut sim = crate::FlatDdSimulator::new(8, cfg);
        sim.run(&qcircuit::generators::ghz(8)).unwrap();
        assert_eq!(
            sim.stats().to_json(),
            "{\"gates_dd\":8,\"gates_dmav\":0,\"converted_at\":null,\
             \"conversion_seconds\":0,\"cached_dmavs\":0,\"uncached_dmavs\":0,\
             \"cache_hits\":0,\"fused_matrices\":0,\"modeled_cost\":0,\
             \"peak_state_dd_size\":15,\"conversion_refusals\":0,\"pressure_gcs\":0,\
             \"dmav_plan_hits\":0,\"dmav_plan_misses\":0,\"ct_mv_lookups\":50,\
             \"ct_mv_hits\":0,\"ct_mv_hit_rate\":0,\
             \"ct_mm_lookups\":0,\"ct_mm_hits\":0,\"ct_mm_hit_rate\":0,\
             \"ct_add_lookups\":0,\"ct_add_hits\":0,\"ct_add_hit_rate\":0,\
             \"approx_truncations\":0,\"approximate\":false,\"fidelity\":1}"
        );
        let v = qtelemetry::json::parse(&sim.stats().to_json()).unwrap();
        assert_eq!(v.get("gates_dd"), Some(&Json::Num(8.0)));
        assert_eq!(v.get("peak_state_dd_size"), Some(&Json::Num(15.0)));
        assert_eq!(v.get("ct_mv_lookups"), Some(&Json::Num(50.0)));
        assert_eq!(v.get("converted_at"), Some(&Json::Null));
    }

    /// `derive(Debug)` names every struct field, so its output is the
    /// independent list the table is checked against.
    #[test]
    fn every_struct_field_is_in_the_table_exactly_once() {
        let debug = format!("{:?}", FlatDdStats::default());
        let body = debug
            .strip_prefix("FlatDdStats { ")
            .and_then(|d| d.strip_suffix(" }"))
            .expect("derived Debug layout");
        let declared: Vec<&str> = body
            .split(", ")
            .map(|kv| kv.split(':').next().expect("field name"))
            .collect();
        let table: Vec<&str> = FlatDdStats::default()
            .fields()
            .into_iter()
            .map(|(name, _, _)| name)
            .collect();
        assert_eq!(table, declared);
    }

    #[test]
    fn gauges_keep_their_names() {
        let m = MetricsRegistry::new();
        FlatDdStats::default().publish_gauges(&m);
        let mut names: Vec<String> = m.gauges_snapshot().into_iter().map(|(n, _)| n).collect();
        names.sort();
        let mut want = vec![
            "sim.conversion_seconds",
            "sim.converted_at",
            "sim.ct_add_hit_rate",
            "sim.ct_mm_hit_rate",
            "sim.ct_mv_hit_rate",
            "sim.dmav_plan_hits",
            "sim.dmav_plan_misses",
            "sim.fidelity",
            "sim.fused_matrices",
            "sim.modeled_cost",
            "sim.peak_state_dd_size",
        ];
        want.sort();
        assert_eq!(names, want);
        assert_eq!(m.gauge("sim.converted_at").get(), -1.0);
    }
}
