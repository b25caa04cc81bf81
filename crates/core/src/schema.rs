//! Machine-readable advice schema **v2** — (de)serialization of
//! [`AdviceReport`] through the [`gpa_json`] document model.
//!
//! The schema is a stable contract for programmatic consumers (the serve
//! protocol, report diffing, batched clients): every document carries
//! `schema_version`, optional values are explicit `null`s (fields are
//! never omitted), enums serialize as fixed slugs, and field order is
//! fixed — so a report round-trips **byte-identically** through
//! `report_to_json(..).compact()` → [`Json::parse`] →
//! [`report_from_json`]. `docs/advice-schema.md` specifies the layout
//! field by field, the versioning policy, and the v1→v2 mapping.

use crate::advisor::{
    AdviceItem, AdviceReport, EstimatorInputs, HotspotReport, LocationReport, RegionReport,
};
use crate::estimators::ParallelParams;
use crate::optimizers::{Hint, HintKind, OptimizerCategory, OptimizerId};
use gpa_json::{Json, JsonError};

/// The crate's result type for schema decoding.
pub type Result<T> = std::result::Result<T, JsonError>;

/// Renders a report's ranked items as the flat **v1** advice list: one
/// `{rank, optimizer, estimated_speedup, matched_ratio}` object per
/// item, ranks from 1. Kept byte-stable for pre-v2 consumers; callers
/// wrap it in their own envelope.
pub fn advice_v1_json(report: &AdviceReport) -> Json {
    Json::Arr(
        report
            .items
            .iter()
            .enumerate()
            .map(|(rank, item)| {
                Json::object()
                    .with("rank", rank + 1)
                    .with("optimizer", item.optimizer())
                    .with("estimated_speedup", item.estimated_speedup)
                    .with("matched_ratio", item.matched_ratio)
            })
            .collect(),
    )
}

/// Renders a report as its schema-v2 JSON document.
pub fn report_to_json(report: &AdviceReport) -> Json {
    Json::object()
        .with("schema_version", report.schema_version)
        .with("kernel", report.kernel.clone())
        .with("total_samples", report.total_samples)
        .with("active_samples", report.active_samples)
        .with("latency_samples", report.latency_samples)
        .with(
            "stall_histogram",
            Json::Arr(
                report
                    .stall_histogram
                    .iter()
                    .map(|(reason, samples)| {
                        Json::object().with("reason", reason.clone()).with("samples", *samples)
                    })
                    .collect(),
            ),
        )
        .with("items", Json::Arr(report.items.iter().map(item_to_json).collect()))
}

fn item_to_json(item: &AdviceItem) -> Json {
    Json::object()
        .with("id", item.id.slug())
        .with("optimizer", item.id.name())
        .with("category", item.category.slug())
        .with("matched_ratio", item.matched_ratio)
        .with("estimated_speedup", item.estimated_speedup)
        .with("estimator", estimator_to_json(&item.estimator))
        .with("hints", Json::Arr(item.hints.iter().map(hint_to_json).collect()))
        .with("hotspots", Json::Arr(item.hotspots.iter().map(hotspot_to_json).collect()))
}

fn estimator_to_json(estimator: &EstimatorInputs) -> Json {
    match estimator {
        EstimatorInputs::StallElimination { total, matched } => Json::object()
            .with("kind", "stall-elimination")
            .with("total", *total)
            .with("matched", *matched),
        EstimatorInputs::LatencyHiding { total, active, matched_latency, scopes } => Json::object()
            .with("kind", "latency-hiding")
            .with("total", *total)
            .with("active", *active)
            .with("matched_latency", *matched_latency)
            .with("scopes", *scopes),
        EstimatorInputs::Parallel { issue_ratio, params } => Json::object()
            .with("kind", "parallel")
            .with("issue_ratio", *issue_ratio)
            .with("params", params.as_ref().map_or(Json::Null, params_to_json)),
        EstimatorInputs::ResidualElimination { total, matched, residual } => Json::object()
            .with("kind", "residual-elimination")
            .with("total", *total)
            .with("matched", *matched)
            .with("residual", *residual),
    }
}

fn params_to_json(p: &ParallelParams) -> Json {
    Json::object()
        .with("w_old", p.w_old)
        .with("w_new", p.w_new)
        .with("busy_sms_old", p.busy_sms_old)
        .with("busy_sms_new", p.busy_sms_new)
        .with("lane_eff_old", p.lane_eff_old)
        .with("lane_eff_new", p.lane_eff_new)
        .with("factor", p.factor)
}

fn hint_to_json(hint: &Hint) -> Json {
    Json::object().with("kind", hint.kind.slug()).with("text", hint.text.clone())
}

fn hotspot_to_json(h: &HotspotReport) -> Json {
    Json::object()
        .with("ratio", h.ratio)
        .with("speedup", h.speedup)
        .with("distance", h.distance.map_or(Json::Null, Json::from))
        .with("def", h.def.as_ref().map_or(Json::Null, location_to_json))
        .with("use", location_to_json(&h.use_))
        .with("region", region_to_json(&h.region))
}

fn location_to_json(loc: &LocationReport) -> Json {
    Json::object()
        .with("pc", loc.pc)
        .with("function", loc.function.clone())
        .with("file", loc.file.clone().map_or(Json::Null, Json::from))
        .with("line", loc.line.map_or(Json::Null, Json::from))
        .with("scope", loc.scope.clone())
}

fn region_to_json(r: &RegionReport) -> Json {
    Json::object()
        .with("function", r.function.clone())
        .with("pc_begin", r.pc_begin)
        .with("pc_end", r.pc_end)
        .with("file", r.file.clone().map_or(Json::Null, Json::from))
        .with("line_begin", r.line_begin.map_or(Json::Null, Json::from))
        .with("line_end", r.line_end.map_or(Json::Null, Json::from))
        .with("scope", r.scope.clone())
}

/// Parses a schema-v2 JSON document back into an [`AdviceReport`].
///
/// # Errors
///
/// On a missing/ill-typed field, an unknown enum slug, or a
/// `schema_version` this crate does not read.
pub fn report_from_json(doc: &Json) -> Result<AdviceReport> {
    let version = doc.field("schema_version")?.as_u64()?;
    if version != u64::from(crate::advisor::SCHEMA_VERSION) {
        return Err(JsonError::from_msg(format!(
            "unsupported advice schema_version {version} (this build reads v{})",
            crate::advisor::SCHEMA_VERSION
        )));
    }
    let stall_histogram = doc
        .field("stall_histogram")?
        .as_array()?
        .iter()
        .map(|e| Ok((e.field("reason")?.as_str()?.to_string(), e.field("samples")?.as_u64()?)))
        .collect::<Result<Vec<_>>>()?;
    let items =
        doc.field("items")?.as_array()?.iter().map(item_from_json).collect::<Result<Vec<_>>>()?;
    Ok(AdviceReport {
        schema_version: version as u32,
        kernel: doc.field("kernel")?.as_str()?.to_string(),
        total_samples: doc.field("total_samples")?.as_u64()?,
        active_samples: doc.field("active_samples")?.as_u64()?,
        latency_samples: doc.field("latency_samples")?.as_u64()?,
        stall_histogram,
        items,
    })
}

fn item_from_json(doc: &Json) -> Result<AdviceItem> {
    let slug = doc.field("id")?.as_str()?;
    let id = OptimizerId::from_name(slug)
        .ok_or_else(|| JsonError::from_msg(format!("unknown optimizer id `{slug}`")))?;
    let cat = doc.field("category")?.as_str()?;
    let category = OptimizerCategory::from_slug(cat)
        .ok_or_else(|| JsonError::from_msg(format!("unknown category `{cat}`")))?;
    if category != id.category() {
        return Err(JsonError::from_msg(format!(
            "category `{cat}` contradicts optimizer `{slug}` (whose category is `{}`)",
            id.category().slug()
        )));
    }
    let hints =
        doc.field("hints")?.as_array()?.iter().map(hint_from_json).collect::<Result<Vec<_>>>()?;
    let hotspots = doc
        .field("hotspots")?
        .as_array()?
        .iter()
        .map(hotspot_from_json)
        .collect::<Result<Vec<_>>>()?;
    Ok(AdviceItem {
        id,
        category,
        matched_ratio: doc.field("matched_ratio")?.as_f64()?,
        estimated_speedup: doc.field("estimated_speedup")?.as_f64()?,
        estimator: estimator_from_json(doc.field("estimator")?)?,
        hints,
        hotspots,
    })
}

fn estimator_from_json(doc: &Json) -> Result<EstimatorInputs> {
    match doc.field("kind")?.as_str()? {
        "stall-elimination" => Ok(EstimatorInputs::StallElimination {
            total: doc.field("total")?.as_f64()?,
            matched: doc.field("matched")?.as_f64()?,
        }),
        "latency-hiding" => Ok(EstimatorInputs::LatencyHiding {
            total: doc.field("total")?.as_f64()?,
            active: doc.field("active")?.as_f64()?,
            matched_latency: doc.field("matched_latency")?.as_f64()?,
            scopes: doc.field("scopes")?.as_u32()?,
        }),
        "parallel" => {
            let params = match doc.field("params")? {
                Json::Null => None,
                p => Some(params_from_json(p)?),
            };
            Ok(EstimatorInputs::Parallel {
                issue_ratio: doc.field("issue_ratio")?.as_f64()?,
                params,
            })
        }
        "residual-elimination" => Ok(EstimatorInputs::ResidualElimination {
            total: doc.field("total")?.as_f64()?,
            matched: doc.field("matched")?.as_f64()?,
            residual: doc.field("residual")?.as_f64()?,
        }),
        other => Err(JsonError::from_msg(format!("unknown estimator kind `{other}`"))),
    }
}

fn params_from_json(doc: &Json) -> Result<ParallelParams> {
    Ok(ParallelParams {
        w_old: doc.field("w_old")?.as_f64()?,
        w_new: doc.field("w_new")?.as_f64()?,
        busy_sms_old: doc.field("busy_sms_old")?.as_f64()?,
        busy_sms_new: doc.field("busy_sms_new")?.as_f64()?,
        lane_eff_old: doc.field("lane_eff_old")?.as_f64()?,
        lane_eff_new: doc.field("lane_eff_new")?.as_f64()?,
        factor: doc.field("factor")?.as_f64()?,
    })
}

fn hint_from_json(doc: &Json) -> Result<Hint> {
    let kind_slug = doc.field("kind")?.as_str()?;
    let kind = HintKind::from_slug(kind_slug)
        .ok_or_else(|| JsonError::from_msg(format!("unknown hint kind `{kind_slug}`")))?;
    Ok(Hint { kind, text: doc.field("text")?.as_str()?.to_string() })
}

fn hotspot_from_json(doc: &Json) -> Result<HotspotReport> {
    let def = match doc.field("def")? {
        Json::Null => None,
        loc => Some(location_from_json(loc)?),
    };
    Ok(HotspotReport {
        def,
        use_: location_from_json(doc.field("use")?)?,
        region: region_from_json(doc.field("region")?)?,
        ratio: doc.field("ratio")?.as_f64()?,
        speedup: doc.field("speedup")?.as_f64()?,
        distance: opt_u32(doc.field("distance")?)?,
    })
}

fn location_from_json(doc: &Json) -> Result<LocationReport> {
    Ok(LocationReport {
        pc: doc.field("pc")?.as_u64()?,
        function: doc.field("function")?.as_str()?.to_string(),
        file: opt_string(doc.field("file")?)?,
        line: opt_u32(doc.field("line")?)?,
        scope: doc.field("scope")?.as_str()?.to_string(),
    })
}

fn region_from_json(doc: &Json) -> Result<RegionReport> {
    Ok(RegionReport {
        function: doc.field("function")?.as_str()?.to_string(),
        pc_begin: doc.field("pc_begin")?.as_u64()?,
        pc_end: doc.field("pc_end")?.as_u64()?,
        file: opt_string(doc.field("file")?)?,
        line_begin: opt_u32(doc.field("line_begin")?)?,
        line_end: opt_u32(doc.field("line_end")?)?,
        scope: doc.field("scope")?.as_str()?.to_string(),
    })
}

fn opt_string(v: &Json) -> Result<Option<String>> {
    match v {
        Json::Null => Ok(None),
        other => Ok(Some(other.as_str()?.to_string())),
    }
}

fn opt_u32(v: &Json) -> Result<Option<u32>> {
    match v {
        Json::Null => Ok(None),
        other => Ok(Some(other.as_u32()?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advisor::SCHEMA_VERSION;

    fn sample_report() -> AdviceReport {
        AdviceReport {
            schema_version: SCHEMA_VERSION,
            kernel: "k".to_string(),
            total_samples: 1000,
            active_samples: 400,
            latency_samples: 600,
            stall_histogram: vec![("exec_dependency".to_string(), 600)],
            items: vec![
                AdviceItem {
                    id: OptimizerId::StrengthReduction,
                    category: OptimizerCategory::StallElimination,
                    matched_ratio: 0.25,
                    estimated_speedup: 1.5,
                    estimator: EstimatorInputs::StallElimination { total: 1000.0, matched: 250.0 },
                    hints: vec![Hint::guidance("avoid division"), Hint::finding("64 edges")],
                    hotspots: vec![HotspotReport {
                        def: Some(LocationReport {
                            pc: 16,
                            function: "k".to_string(),
                            file: Some("k.cu".to_string()),
                            line: Some(3),
                            scope: "Loop at k.cu:2 in k".to_string(),
                        }),
                        use_: LocationReport {
                            pc: 32,
                            function: "k".to_string(),
                            file: None,
                            line: None,
                            scope: String::new(),
                        },
                        region: RegionReport {
                            function: "k".to_string(),
                            pc_begin: 0,
                            pc_end: 128,
                            file: Some("k.cu".to_string()),
                            line_begin: Some(1),
                            line_end: Some(9),
                            scope: "Loop at k.cu:2 in k".to_string(),
                        },
                        ratio: 0.1,
                        speedup: 1.11,
                        distance: Some(1),
                    }],
                },
                AdviceItem {
                    id: OptimizerId::BlockIncrease,
                    category: OptimizerCategory::Parallel,
                    matched_ratio: 0.0,
                    estimated_speedup: 1.2,
                    estimator: EstimatorInputs::Parallel {
                        issue_ratio: 0.4,
                        params: Some(ParallelParams {
                            w_old: 8.0,
                            w_new: 4.0,
                            busy_sms_old: 16.0,
                            busy_sms_new: 32.0,
                            lane_eff_old: 1.0,
                            lane_eff_new: 0.5,
                            factor: 1.25,
                        }),
                    },
                    hints: vec![Hint::guidance("split blocks")],
                    hotspots: vec![],
                },
                AdviceItem {
                    id: OptimizerId::MemoryCoalescing,
                    category: OptimizerCategory::StallElimination,
                    matched_ratio: 0.3,
                    estimated_speedup: 1.29,
                    estimator: EstimatorInputs::ResidualElimination {
                        total: 1000.0,
                        matched: 300.0,
                        residual: 0.25,
                    },
                    hints: vec![Hint::guidance("coalesce warp accesses")],
                    hotspots: vec![],
                },
            ],
        }
    }

    #[test]
    fn v2_round_trips_byte_identically() {
        let report = sample_report();
        let text = report_to_json(&report).compact();
        let back = report_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, report, "structural equality");
        assert_eq!(report_to_json(&back).compact(), text, "byte identity");
    }

    #[test]
    fn rejects_foreign_versions_and_bad_slugs() {
        let report = sample_report();
        let mut doc = report_to_json(&report);
        if let Json::Obj(entries) = &mut doc {
            entries[0].1 = Json::from(99u64);
        }
        let err = report_from_json(&doc).unwrap_err();
        assert!(err.to_string().contains("schema_version"), "{err}");

        let doc = Json::parse(
            &report_to_json(&report).compact().replace("strength-reduction", "warp-drive"),
        )
        .unwrap();
        let err = report_from_json(&doc).unwrap_err();
        assert!(err.to_string().contains("warp-drive"), "{err}");

        // A category that contradicts the item's id is rejected, so the
        // `category == id.category()` invariant survives deserialization.
        let doc = Json::parse(&report_to_json(&report).compact().replacen(
            "\"category\":\"stall-elimination\"",
            "\"category\":\"parallel\"",
            1,
        ))
        .unwrap();
        let err = report_from_json(&doc).unwrap_err();
        assert!(err.to_string().contains("contradicts"), "{err}");
    }
}
