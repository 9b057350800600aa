//! Behavioural tests for the span recorder, progress counters,
//! histograms, and the JSON consumer.
//!
//! Tracing state is process-global, so every test touching it serialises
//! on one lock and resets the rings/counters it uses.

use ind_trace::json::{self, Json};
use std::sync::Mutex;

static TRACE_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    match TRACE_LOCK.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[test]
fn spans_nest_within_parents_across_threads() {
    let _lock = locked();
    ind_trace::enable();
    ind_trace::reset();

    {
        let _root = ind_trace::start(ind_trace::DISCOVER);
        {
            let _export = ind_trace::start(ind_trace::EXPORT);
            let parent = ind_trace::current_parent();
            let worker = std::thread::spawn(move || {
                let sort = ind_trace::start_under(ind_trace::SORT, 7, parent);
                ind_trace::add_counter(ind_trace::Counter::AttributesExported, 1);
                sort.finish();
            });
            worker.join().expect("worker");
        }
        let _merge = ind_trace::start(ind_trace::SPIDER_MERGE);
        ind_trace::add_counter(ind_trace::Counter::ItemsRead, 42);
    }

    let trace = ind_trace::collect();
    ind_trace::disable();

    assert_eq!(trace.dropped_events, 0);
    assert_eq!(trace.roots.len(), 1, "one discover root: {trace:?}");
    let root = &trace.roots[0];
    assert_eq!(root.name, "discover");
    assert_eq!(root.children.len(), 2, "{root:?}");
    let export = &root.children[0];
    assert_eq!(export.name, "export");
    assert_eq!(export.children.len(), 1);
    let sort = &export.children[0];
    assert_eq!((sort.name, sort.arg), ("sort", 7));
    assert_eq!(sort.counters[2], 1, "attributes_exported delta on sort");
    let merge = &root.children[1];
    assert_eq!(merge.name, "spider_merge");
    assert_eq!(merge.counters[0], 42, "items_read delta on merge");

    // Interval containment: every child starts no earlier and ends no
    // later than its parent.
    fn check(node: &ind_trace::SpanNode) {
        let end = node.start_ns + node.duration_ns;
        for child in &node.children {
            assert!(child.start_ns >= node.start_ns, "{node:?}");
            assert!(child.start_ns + child.duration_ns <= end, "{node:?}");
            check(child);
        }
    }
    check(root);

    // Root counter deltas include everything recorded inside it.
    assert_eq!(root.counters[0], 42);
    assert_eq!(root.counters[2], 1);
}

#[test]
fn disabled_tracing_records_nothing_and_counts_nothing() {
    let _lock = locked();
    ind_trace::enable();
    ind_trace::reset();
    ind_trace::disable();

    {
        let _root = ind_trace::start(ind_trace::DISCOVER);
        ind_trace::add_counter(ind_trace::Counter::ItemsRead, 99);
        ind_trace::set_candidates_live(5);
        ind_trace::BLOCK_FILL_NANOS.record(1234);
    }
    let trace = ind_trace::collect();
    assert!(trace.roots.is_empty(), "{trace:?}");
    assert_eq!(ind_trace::progress().items_read, 0);
    assert_eq!(ind_trace::progress().candidates_live, 0);
    let total: u64 = ind_trace::BLOCK_FILL_NANOS.bucket_counts().iter().sum();
    assert_eq!(total, 0);
}

#[test]
fn folded_stacks_carry_labels_and_self_time() {
    let _lock = locked();
    ind_trace::enable();
    ind_trace::reset();
    {
        let _root = ind_trace::start(ind_trace::DISCOVER);
        {
            let _export = ind_trace::start(ind_trace::EXPORT);
            let _sort = ind_trace::start_arg(ind_trace::SORT, 3);
        }
        let _level = ind_trace::start_arg(ind_trace::LEVEL, 2);
    }
    let trace = ind_trace::collect();
    ind_trace::disable();
    let folded = ind_trace::folded(&trace);
    assert!(folded.contains("discover "), "{folded}");
    assert!(folded.contains("discover;export;sort/attr=3 "), "{folded}");
    assert!(folded.contains("discover;level=2 "), "{folded}");
    for line in folded.lines() {
        let (_, value) = line.rsplit_once(' ').expect("stack value");
        value.parse::<u64>().expect("numeric self time");
    }
}

#[test]
fn spans_json_is_parseable_and_well_formed() {
    let _lock = locked();
    ind_trace::enable();
    ind_trace::reset();
    {
        let _root = ind_trace::start(ind_trace::DISCOVER);
        let _export = ind_trace::start(ind_trace::EXPORT);
        ind_trace::add_counter(ind_trace::Counter::ValueBytesRead, 10);
    }
    let trace = ind_trace::collect();
    ind_trace::disable();
    let text = ind_trace::spans_json(&trace, 0);
    let parsed = json::parse(&text).expect("valid JSON");
    let spans = parsed.as_arr().expect("array");
    assert_eq!(spans.len(), 1);
    let root = &spans[0];
    assert_eq!(root.get("name").and_then(Json::as_str), Some("discover"));
    let children = root
        .get("children")
        .and_then(Json::as_arr)
        .expect("children");
    assert_eq!(children.len(), 1);
    let counters = children[0].get("counters").expect("counters");
    assert_eq!(
        counters.get("value_bytes_read").and_then(Json::as_u64),
        Some(10)
    );
}

#[test]
fn histogram_buckets_are_power_of_two() {
    let _lock = locked();
    ind_trace::enable();
    ind_trace::reset();
    ind_trace::RECORD_LEN_BYTES.record(0);
    ind_trace::RECORD_LEN_BYTES.record(1);
    ind_trace::RECORD_LEN_BYTES.record(2);
    ind_trace::RECORD_LEN_BYTES.record(3);
    ind_trace::RECORD_LEN_BYTES.record(1024);
    ind_trace::RECORD_LEN_BYTES.record(u64::MAX);
    let counts = ind_trace::RECORD_LEN_BYTES.bucket_counts();
    ind_trace::disable();
    assert_eq!(counts[0], 1, "zero bucket");
    assert_eq!(counts[1], 1, "[1,2)");
    assert_eq!(counts[2], 2, "[2,4)");
    assert_eq!(counts[11], 1, "[1024,2048)");
    assert_eq!(counts[63], 1, "top bucket clamps");
}

#[test]
fn ring_overflow_counts_drops_instead_of_growing() {
    let _lock = locked();
    ind_trace::enable();
    ind_trace::reset();
    // Far more spans than one ring holds (each span = 2 events).
    for i in 0..20_000u64 {
        let _span = ind_trace::start_arg(ind_trace::SORT, i);
    }
    let trace = ind_trace::collect();
    ind_trace::disable();
    assert!(trace.dropped_events > 0, "ring must saturate, not grow");
    // Whatever survived still parses into finished root spans.
    assert!(!trace.roots.is_empty());
    ind_trace::reset();
}

#[test]
fn json_parser_handles_the_report_vocabulary() {
    let text = r#"{
        "report_version": 1,
        "ok": true,
        "none": null,
        "ratio": -2.5,
        "big": 18446744073709551615,
        "name": "pdb \"x\" A\n",
        "list": [1, 2, [], {}],
        "nested": {"a": {"b": 3}}
    }"#;
    let v = json::parse(text).expect("parses");
    assert_eq!(v.get("report_version").and_then(Json::as_u64), Some(1));
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(v.get("none"), Some(&Json::Null));
    assert_eq!(v.get("ratio").and_then(Json::as_f64), Some(-2.5));
    assert_eq!(v.get("big").and_then(Json::as_u64), Some(u64::MAX));
    assert_eq!(v.get("name").and_then(Json::as_str), Some("pdb \"x\" A\n"));
    assert_eq!(
        v.get("list").and_then(Json::as_arr).map(<[Json]>::len),
        Some(4)
    );
    assert_eq!(
        v.get("nested")
            .and_then(|n| n.get("a"))
            .and_then(|a| a.get("b"))
            .and_then(Json::as_u64),
        Some(3)
    );

    for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "\"unterminated", "1 2"] {
        assert!(json::parse(bad).is_err(), "{bad:?} must not parse");
    }
}

#[test]
fn json_strings_decode_runs_and_escapes_alike() {
    // (JSON source of one string, decoded text). 2-byte é, 3-byte €,
    // 4-byte 😀, with escapes before, between and after the plain runs.
    let cases: &[(&str, &str)] = &[
        (r#""""#, ""),
        (r#""plain ascii""#, "plain ascii"),
        (r#""é€😀""#, "é€😀"),
        (r#""\"é€😀\"""#, "\"é€😀\""),
        (r#""\\é\n€\t😀\\""#, "\\é\n€\t😀\\"),
        (r#""ab\/cd\b\f\r""#, "ab/cd\u{8}\u{c}\r"),
        (r#""\u00e9é\u20ac€""#, "éé€€"),
        (r#""😀\u0041😀""#, "😀A😀"),
        (r#""\u0000x""#, "\0x"),
        (r#""€\"""#, "€\""),
        (r#""\\""#, "\\"),
    ];
    for (source, want) in cases {
        let parsed = json::parse(source).unwrap_or_else(|e| panic!("{source}: {e}"));
        assert_eq!(parsed.as_str(), Some(*want), "{source}");
        // The same string as an object key and inside an array.
        let doc = format!("{{{source}: [{source}, {source}]}}");
        let parsed = json::parse(&doc).unwrap_or_else(|e| panic!("{doc}: {e}"));
        let fields = parsed.as_obj().expect("object");
        assert_eq!(fields[0].0, *want, "{doc}");
        let items = fields[0].1.as_arr().expect("array");
        assert!(items.iter().all(|v| v.as_str() == Some(*want)), "{doc}");
    }

    let long_run = "é€😀x".repeat(1000);
    for bad in [
        format!("\"{long_run}"),
        format!("\"\\n{long_run}"),
        format!("[\"{long_run}\\\"]"),
        "\"é\\".to_string(),
        "\"\\q\"".to_string(),
        "\"\\u00\"".to_string(),
        "\"\\ud800\"".to_string(),
    ] {
        assert!(json::parse(&bad).is_err(), "{bad:?} must not parse");
    }
}

#[test]
fn json_parser_is_linear_in_document_size() {
    // A manifest-shaped document: 20,000 entries of string-heavy objects.
    // Parsing validated each character against the rest of the document
    // once, which made this quadratic; it has to finish promptly even in
    // a debug build.
    let mut doc = String::from("{\"manifest_version\": 2, \"entries\": [");
    for i in 0..20_000 {
        if i > 0 {
            doc.push(',');
        }
        doc.push_str(&format!(
            "\n{{\"file\": \"attr-{i:05}.indv\", \"table\": \"tàble_{i}\", \
             \"column\": \"c\\\"{i}\\\"\", \"min\": \"{i:08x}\", \"records\": {i}}}"
        ));
    }
    doc.push_str("\n]}\n");
    let parsed = json::parse(&doc).expect("parses");
    let entries = parsed.get("entries").and_then(Json::as_arr).expect("array");
    assert_eq!(entries.len(), 20_000);
    let last = &entries[19_999];
    assert_eq!(
        last.get("file").and_then(Json::as_str),
        Some("attr-19999.indv")
    );
    assert_eq!(
        last.get("table").and_then(Json::as_str),
        Some("tàble_19999")
    );
    assert_eq!(
        last.get("column").and_then(Json::as_str),
        Some("c\"19999\"")
    );
    assert_eq!(last.get("records").and_then(Json::as_u64), Some(19_999));
}
