//! Cost of crash safety: the write-ahead request journal's append path
//! (what every accepted submission pays) and the recovery path a
//! restarted daemon runs (decode + unsealed fold, and the whole
//! `ShardedQueue::recover` that `tamopt serve` calls on restart).
//!
//! The recovery contract is asserted before any timing: the journal
//! image must round-trip record-for-record, recovery must deliver
//! exactly the accepted-but-unsealed ids in id order, report the
//! journaled cancel without running it, and redo the rest with winners
//! identical to an uninterrupted run of the same requests — recovery
//! may re-spend work, it may never change a result.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use tamopt::benchmarks;
use tamopt::service::{
    LineParser, LiveConfig, LiveQueue, NetDirective, Request, RequestOutcome, RequestStatus,
    ShardedQueue, Trace,
};
use tamopt::store::journal::{decode, unsealed};
use tamopt::store::{Journal, JournalRecord, SyncPolicy};

/// The journaled workload: `(line, width, max_tams)` on d695/p31108,
/// the same shapes the serve benches use.
const WORKLOAD: &[(&str, u32, u32)] = &[
    ("d695", 32, 6),
    ("p31108", 32, 4),
    ("d695", 24, 4),
    ("p31108", 24, 3),
    ("d695", 16, 2),
    ("p31108", 16, 2),
];

fn request(spec: (&str, u32, u32)) -> Request {
    let (name, width, max_tams) = spec;
    let soc = match name {
        "d695" => benchmarks::d695(),
        _ => benchmarks::p31108(),
    };
    Request::new(soc, width).unwrap().max_tams(max_tams)
}

/// The bench grammar, `<soc> <width> <max-tams>`: what [`records`]
/// journals and recovery parses back.
fn parse(line: &str) -> Result<Option<NetDirective>, String> {
    let fields: Vec<&str> = line.split_whitespace().collect();
    let [name, width, max_tams] = fields[..] else {
        return Err(format!("malformed line `{line}`"));
    };
    let number = |field: &str| field.parse::<u32>().map_err(|e| e.to_string());
    let spec = (name, number(width)?, number(max_tams)?);
    Ok(Some(NetDirective::Submit(request(spec))))
}

/// What a killed daemon leaves behind: every submission accepted, the
/// first two sealed, one cancel accepted but unsealed.
fn records() -> Vec<JournalRecord> {
    let mut records: Vec<JournalRecord> = WORKLOAD
        .iter()
        .enumerate()
        .map(|(id, &(name, width, max_tams))| JournalRecord::Submit {
            id: id as u64,
            client: None,
            shard: None,
            line: format!("{name} {width} {max_tams}"),
        })
        .collect();
    records.push(JournalRecord::Cancel { id: 3 });
    records.push(JournalRecord::Sealed { id: 0 });
    records.push(JournalRecord::Sealed { id: 1 });
    records
}

fn winners(stream: &[RequestOutcome]) -> Vec<String> {
    let mut stream: Vec<&RequestOutcome> = stream.iter().collect();
    stream.sort_by_key(|o| o.index);
    stream
        .iter()
        .map(|o| {
            let line = o.to_json_line();
            let tail = line.split("\"soc\"").nth(1).unwrap_or(&line);
            tail.split("\"stats\"").next().unwrap_or(tail).to_owned()
        })
        .collect()
}

fn bench_journal(c: &mut Criterion) {
    let records = records();
    let path = std::env::temp_dir().join(format!(
        "tamopt_bench_journal_{}.tamjrnl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);

    // Write the crash image once through the real append path, then
    // gate the whole recovery pipeline before timing anything.
    {
        let mut journal = Journal::open(&path, SyncPolicy::Always).unwrap().journal;
        for record in &records {
            journal.append(record).unwrap();
        }
    }
    let image = std::fs::read(&path).unwrap();
    let decoded = decode(&image).unwrap();
    assert!(decoded.warnings.is_empty(), "{:?}", decoded.warnings);
    assert_eq!(decoded.records, records, "journal image must round-trip");
    let config = LiveConfig::with_threads(1);
    let parser: LineParser = Arc::new(parse);
    let mut redo = Vec::new();
    ShardedQueue::recover(&decoded.records, &config, None, &parser, |o| redo.push(o)).unwrap();
    assert_eq!(
        redo.iter().map(|o| o.index).collect::<Vec<_>>(),
        vec![2, 3, 4, 5],
        "the sealed prefix stays out of recovery, the rest comes in id order"
    );
    let (cancelled, redo): (Vec<_>, Vec<_>) = redo
        .into_iter()
        .partition(|o| o.status == RequestStatus::Cancelled);
    assert_eq!(
        cancelled.iter().map(|o| o.index).collect::<Vec<_>>(),
        vec![3],
        "the journaled cancel is reported, not re-run"
    );
    let full = WORKLOAD
        .iter()
        .fold(Trace::new(), |t, &spec| t.submit_at(0, request(spec)));
    let (reference, _) = LiveQueue::replay(full, LiveConfig::with_threads(1));
    let reference = winners(&reference);
    let expected: Vec<String> = redo.iter().map(|o| reference[o.index].clone()).collect();
    assert_eq!(
        winners(&redo),
        expected,
        "recovery redo must produce the uninterrupted winners"
    );

    let mut group = c.benchmark_group("journal_recovery");
    group.sample_size(20);
    // The accept-path tax: append the full crash image, one record per
    // accepted event, write-through but without the device barrier (the
    // barrier cost is a policy choice, not an encoding cost).
    let mut journal = Journal::open(&path, SyncPolicy::Never).unwrap().journal;
    group.bench_function("append", |b| {
        b.iter(|| {
            journal.compact().unwrap();
            for record in &records {
                journal.append(black_box(record)).unwrap();
            }
        })
    });
    // The restart read path: decode the image and fold out what needs
    // redoing.
    group.bench_function("decode_unsealed", |b| {
        b.iter(|| black_box(unsealed(&decode(black_box(&image)).unwrap().records)))
    });
    // The whole restart: decode, fold, redo the live set on a fresh
    // queue and deliver every outcome (to a writer that drops it).
    group.sample_size(10);
    group.bench_function("recover", |b| {
        b.iter(|| {
            let records = decode(black_box(&image)).unwrap().records;
            ShardedQueue::recover(&records, &config, None, &parser, |o| {
                black_box(o);
            })
            .unwrap()
        })
    });
    group.finish();

    drop(journal);
    let _ = std::fs::remove_file(&path);
}

criterion_group!(benches, bench_journal);
criterion_main!(benches);
