//! Self-tests of the benchmark: seeded inputs, metric names, agreement with
//! `BENCHMARK.json`, and smoke-size runs that pass every correctness check.

use dgobench::spec::{valid_name, END_TO_END, PER_LAYER};
use dgobench::{plain, traced, Scale, Workload};
use std::collections::BTreeMap;

/// A parsed JSON value; enough of JSON for `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    List(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(map) => map.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            _ => panic!("not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn list(&self) -> &[Json] {
        match self {
            Json::List(items) => items,
            other => panic!("not a list: {other:?}"),
        }
    }
}

fn parse_json(text: &str) -> Json {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos);
    skip_ws(bytes, &mut pos);
    assert_eq!(pos, bytes.len(), "trailing characters");
    value
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && b[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Json {
    skip_ws(b, pos);
    match b[*pos] {
        b'{' => {
            *pos += 1;
            let mut map = BTreeMap::new();
            loop {
                skip_ws(b, pos);
                if b[*pos] == b'}' {
                    *pos += 1;
                    return Json::Obj(map);
                }
                let Json::Str(key) = parse_value(b, pos) else {
                    panic!("object key is not a string")
                };
                skip_ws(b, pos);
                assert_eq!(b[*pos], b':');
                *pos += 1;
                assert!(
                    map.insert(key, parse_value(b, pos)).is_none(),
                    "duplicate key"
                );
                skip_ws(b, pos);
                if b[*pos] == b',' {
                    *pos += 1;
                }
            }
        }
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            loop {
                skip_ws(b, pos);
                if b[*pos] == b']' {
                    *pos += 1;
                    return Json::List(items);
                }
                items.push(parse_value(b, pos));
                skip_ws(b, pos);
                if b[*pos] == b',' {
                    *pos += 1;
                }
            }
        }
        b'"' => {
            *pos += 1;
            let start = *pos;
            while b[*pos] != b'"' {
                assert_ne!(b[*pos], b'\\', "escapes are not used in BENCHMARK.json");
                *pos += 1;
            }
            *pos += 1;
            Json::Str(String::from_utf8(b[start..*pos - 1].to_vec()).expect("utf-8"))
        }
        _ => {
            let start = *pos;
            while *pos < b.len() && !b",]} \n\r\t".contains(&b[*pos]) {
                *pos += 1;
            }
            match &b[start..*pos] {
                b"true" => Json::Bool(true),
                b"false" => Json::Bool(false),
                b"null" => Json::Null,
                number => Json::Num(
                    std::str::from_utf8(number)
                        .expect("utf-8")
                        .parse()
                        .expect("number"),
                ),
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root"))
}

#[test]
fn same_seed_gives_identical_inputs_and_counts() {
    for workload in Workload::ALL {
        let a = workload.generate(7, Scale::Smoke);
        let b = workload.generate(7, Scale::Smoke);
        assert_eq!(a.bytes, b.bytes, "{}", workload.name());
        assert_eq!(a.truth, b.truth, "{}", workload.name());
        assert_ne!(a.bytes, workload.generate(8, Scale::Smoke).bytes);

        // Timings differ between runs; every other end-to-end metric is a
        // deterministic count or ratio and must repeat exactly.
        let counts = |r: dgobench::Report| -> Vec<(&str, f64)> {
            r.metrics
                .into_iter()
                .filter(|(name, _, unit)| *unit != "s" && *name != "peak_rss_mib")
                .map(|(name, value, _)| (name, value))
                .collect()
        };
        let first = counts(plain::run(workload, 7, 1, Scale::Smoke));
        let second = counts(plain::run(workload, 7, 1, Scale::Smoke));
        assert!(!first.is_empty());
        assert_eq!(first, second, "{}", workload.name());
    }
}

#[test]
fn metric_names_are_well_formed_and_unique() {
    let mut seen = std::collections::BTreeSet::new();
    let names = END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(PER_LAYER.iter().map(|m| m.name));
    for name in names {
        assert!(valid_name(name), "bad metric name {name:?}");
        assert!(seen.insert(name), "metric {name} declared twice");
    }
    for layer in PER_LAYER {
        assert!(matches!(layer.better, "lower" | "higher"), "{}", layer.name);
        assert!(
            !layer.moves.is_empty() && !layer.on.is_empty(),
            "{}",
            layer.name
        );
        for workload in layer.on {
            assert!(
                Workload::from_name(workload).is_some(),
                "{}: {workload}",
                layer.name
            );
        }
    }
}

#[test]
fn benchmark_json_matches_the_metric_tables() {
    let bench = benchmark_json();
    let workloads: Vec<&str> = bench
        .get("workloads")
        .list()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);

    let end_to_end = bench.get("end_to_end").list();
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (json, spec) in end_to_end.iter().zip(END_TO_END) {
        assert_eq!(json.get("name").str(), spec.name);
        assert_eq!(json.get("unit").str(), spec.unit, "{}", spec.name);
        assert_eq!(json.get("better").str(), "lower", "{}", spec.name);
        assert_eq!(json.get("bound"), &Json::Num(spec.bound), "{}", spec.name);
    }
    let end_to_end_names: Vec<&str> = end_to_end.iter().map(|m| m.get("name").str()).collect();

    let per_layer = bench.get("per_layer").list();
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (json, spec) in per_layer.iter().zip(PER_LAYER) {
        assert_eq!(json.get("name").str(), spec.name);
        assert_eq!(json.get("unit").str(), spec.unit, "{}", spec.name);
        assert_eq!(json.get("better").str(), spec.better, "{}", spec.name);
        for target in spec.moves {
            assert!(
                end_to_end_names.contains(target),
                "{} moves {target}, which BENCHMARK.json does not declare",
                spec.name
            );
        }
    }
}

#[test]
fn smoke_runs_pass_every_check() {
    for workload in Workload::ALL {
        let report = plain::run(workload, 3, 1, Scale::Smoke);
        assert!(
            report.correct(),
            "{}: {:?}",
            workload.name(),
            report.problems
        );
        assert!(report.attempted > 0);
        let names: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, expected, "{}", workload.name());
        assert!(
            report.metrics.iter().all(|m| m.1 > 0.0),
            "{}: {:?}",
            workload.name(),
            report.metrics
        );

        let (report, trace) = traced::run(workload, 3, Scale::Smoke);
        assert!(
            report.correct(),
            "{} traced: {:?}",
            workload.name(),
            report.problems
        );
        let names: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, expected, "{}", workload.name());
        let parts = report
            .metrics
            .iter()
            .find(|m| m.0 == "core.reduce.parts")
            .unwrap()
            .1;
        assert_eq!(
            parts > 1.0,
            workload == Workload::Planted,
            "{}",
            workload.name()
        );
        let trace = parse_json(&trace);
        let events = trace.get("traceEvents").list();
        assert!(events
            .iter()
            .any(|e| e.get("name").str() == "core.exponentiate"));
    }
}

#[test]
fn self_time_is_duration_minus_children() {
    let mut tracer = dgobench::trace::Tracer::new();
    let spin = |seconds: f64| {
        let start = std::time::Instant::now();
        while start.elapsed().as_secs_f64() < seconds {}
    };
    tracer.span("parent", |t| {
        spin(0.002);
        t.span("child", |_| spin(0.004));
        t.span("child", |_| spin(0.004));
    });
    let parent = tracer.total("parent");
    let children = tracer.total("child");
    assert!(children >= 0.008 && parent >= children + 0.002);
    assert!((tracer.self_time("parent") - (parent - children)).abs() < 1e-12);
    assert_eq!(tracer.durations("child").len(), 2);
    let json = parse_json(&tracer.chrome_json(&[("x", 1.5)]));
    assert_eq!(json.get("traceEvents").list().len(), 4);
}
