//! The per-daemon dataset cache may save parses, never change a bit.
//!
//! - A span computed on a digest hit, on a miss, on a content hit, across an
//!   eviction, and through the uncached read-then-`exec_span` path gives the
//!   same exceedance counts, for every statistic, side and NA mask.
//! - A dataset rewritten in place — same shape, labels and byte length, mtime
//!   restored — is served from its new contents, on one daemon and on a
//!   coordinator with a peer.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use microarray::io::{read_dataset, write_dataset};
use microarray::prelude::*;
use proptest::prelude::*;
use sprint_core::digest::dataset_digest;
use sprint_core::matrix::Matrix;
use sprint_core::maxt::serial::mt_maxt;
use sprint_core::maxt::CountAccumulator;
use sprint_core::options::{PmaxtOptions, TestMethod};
use sprint_core::side::Side;
use sprint_jobd::client::{expect_ok, Client};
use sprint_jobd::json::Json;
use sprint_jobd::{protocol, JobManager, ManagerConfig, Server};

const METHODS: [TestMethod; 8] = [
    TestMethod::T,
    TestMethod::TEqualVar,
    TestMethod::Wilcoxon,
    TestMethod::F,
    TestMethod::PairT,
    TestMethod::BlockF,
    TestMethod::Corr,
    TestMethod::TMax,
];

/// NA code written into the file for the cases that use `opts.na`.
const NA_CODE: f64 = -999.0;

/// A label vector satisfying `method`'s design from two size knobs.
fn labels_for(method: TestMethod, a: usize, b: usize) -> Vec<u8> {
    match method {
        TestMethod::T
        | TestMethod::TEqualVar
        | TestMethod::Wilcoxon
        | TestMethod::Corr
        | TestMethod::TMax => {
            let mut l = vec![0u8; a];
            l.extend(std::iter::repeat_n(1u8, b));
            l
        }
        TestMethod::F => (0..3u8).flat_map(|c| std::iter::repeat_n(c, a)).collect(),
        TestMethod::PairT => std::iter::repeat_n([0u8, 1u8], a).flatten().collect(),
        TestMethod::BlockF => std::iter::repeat_n([0u8, 1u8, 2u8], a).flatten().collect(),
    }
}

type Knobs = (u8, u8, usize, usize, usize, u64, u64, bool);

/// Method/side selectors, design knobs, genes, B, the span start (in
/// eighths of B) and whether missing cells use an NA code; then cell values
/// and an NA mask.
fn workload() -> impl Strategy<Value = (Knobs, Vec<f64>, Vec<bool>)> {
    (
        0u8..8,
        0u8..3,
        2usize..5,
        2usize..5,
        2usize..7,
        8u64..40,
        0u64..6,
        proptest::bool::weighted(0.5),
    )
        .prop_flat_map(|knobs| {
            let (method_sel, _, a, b, genes, ..) = knobs;
            let cells = genes * labels_for(METHODS[method_sel as usize], a, b).len();
            (
                Just(knobs),
                proptest::collection::vec(-40.0f64..120.0, cells),
                proptest::collection::vec(proptest::bool::weighted(0.12), cells),
            )
        })
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jobd-dscache-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn manager(peers: Vec<String>) -> JobManager {
    JobManager::new(ManagerConfig {
        workers: 1,
        span: 16,
        cache_dir: None,
        peers,
        ..ManagerConfig::default()
    })
    .unwrap()
}

static CASE: AtomicU64 = AtomicU64::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cached_and_uncached_spans_agree(
        (knobs, values, na_mask) in workload()
    ) {
        let (method_sel, side_sel, a, b, genes, perms, at, coded) = knobs;
        let method = METHODS[method_sel as usize];
        let side = [Side::Abs, Side::Upper, Side::Lower][side_sel as usize];
        let labels = labels_for(method, a, b);
        let dir = scratch_dir("prop");
        let path = dir.join(format!("case-{}.tsv", CASE.fetch_add(1, Ordering::Relaxed)));

        // The file holds either NaN cells (written as NA) or the NA code;
        // both canonicalize to the same matrix, so the digest is the same.
        let mut canonical = values.clone();
        let mut written = values;
        for ((c, w), &is_na) in canonical.iter_mut().zip(written.iter_mut()).zip(&na_mask) {
            if is_na {
                *c = f64::NAN;
                *w = if coded { NA_CODE } else { f64::NAN };
            }
        }
        let cols = labels.len();
        let canonical = Matrix::from_vec(genes, cols, canonical).unwrap();
        write_dataset(&path, &Matrix::from_vec(genes, cols, written).unwrap(), &labels).unwrap();
        let digest = dataset_digest(&canonical, &labels);

        let mut opts = PmaxtOptions::default().test(method).side(side).permutations(perms).seed(perms);
        opts.threads = 1;
        if coded {
            opts.na = Some(NA_CODE);
        }
        let start = perms * at / 8;
        let take = perms - start;
        let mgr = manager(Vec::new());

        // The uncached path: read the file, hand the matrix over.
        let (data, cl) = read_dataset(&path).unwrap();
        let (old, _) = mgr.exec_span(data, cl, opts.clone(), perms, start, take).unwrap();

        let span = |digest: Option<u64>, s: u64, t: u64| {
            mgr.exec_span_at(&path, digest, opts.clone(), perms, s, t).unwrap().0
        };
        let miss = span(Some(digest), start, take);
        let hit = span(Some(digest), start, take);
        let content = span(None, start, take);
        let st = mgr.dataset_stats();
        prop_assert_eq!((st.parses, st.digest_hits, st.content_hits), (1, 1, 1));
        prop_assert_eq!(&miss, &old, "miss vs uncached: {:?} {:?}", method, side);
        prop_assert_eq!(&hit, &old, "digest hit vs uncached: {:?} {:?}", method, side);
        prop_assert_eq!(&content, &old, "content hit vs uncached: {:?} {:?}", method, side);

        // Evict between the two halves of the span: the second half is
        // computed over a fresh parse, and the merged counts still agree.
        let half = take / 2;
        let first = span(Some(digest), start, half);
        mgr.clear_datasets();
        let second = span(Some(digest), start + half, take - half);
        prop_assert_eq!(mgr.dataset_stats().parses, 2);
        let mut merged = CountAccumulator::from_flat(&first, genes);
        merged.merge(&CountAccumulator::from_flat(&second, genes));
        prop_assert_eq!(&merged.to_flat(), &old, "evicted mid-span: {:?} {:?}", method, side);

        std::fs::remove_file(&path).ok();
    }
}

fn serve(manager: JobManager) -> String {
    let server = Server::bind("127.0.0.1:0", manager).unwrap();
    let addr = server.local_addr().to_addr_string();
    std::thread::spawn(move || server.run());
    addr
}

fn served_result(addr: &str, path: &Path, opts: &PmaxtOptions) -> sprint_core::maxt::MaxTResult {
    let mut client = Client::connect(addr).unwrap();
    let ack = expect_ok(
        client
            .request(&protocol::submit_request(path.to_str().unwrap(), opts))
            .unwrap(),
    )
    .unwrap();
    let job = ack.get("job").and_then(Json::as_u64).unwrap();
    let resp = expect_ok(
        client
            .request(&protocol::result_request(job, true))
            .unwrap(),
    )
    .unwrap();
    protocol::result_from_json(&resp).unwrap()
}

/// Every row's cells rotated by one column: the same cell strings in a new
/// order, so the file keeps its byte length while every statistic moves.
fn rotated(m: &Matrix) -> Matrix {
    let cols = m.cols();
    let v = (0..m.rows())
        .flat_map(|g| (0..cols).map(move |c| m.get(g, (c + 1) % cols)))
        .collect();
    Matrix::from_vec(m.rows(), cols, v).unwrap()
}

#[test]
fn an_in_place_rewrite_is_never_served_stale() {
    let dir = scratch_dir("rewrite");
    let ds = SynthConfig::two_class(60, 6, 6)
        .na_rate(0.05)
        .diff_fraction(0.2)
        .effect_size(1.5)
        .seed(31)
        .generate();
    let after = rotated(&ds.matrix);
    let opts = PmaxtOptions::default().permutations(400).seed(12);
    let before_serial = mt_maxt(&ds.matrix, &ds.labels, &opts).unwrap();
    let after_serial = mt_maxt(&after, &ds.labels, &opts).unwrap();
    assert_ne!(
        before_serial, after_serial,
        "the rewrite must change the answer"
    );

    let peer = serve(manager(Vec::new()));
    let single = serve(manager(Vec::new()));
    let coordinator = serve(manager(vec![peer.clone()]));
    for (name, addr) in [
        ("one daemon", &single),
        ("coordinator + peer", &coordinator),
    ] {
        let path = dir.join(format!("data-{}.tsv", name.len()));
        write_dataset(&path, &ds.matrix, &ds.labels).unwrap();
        let meta = std::fs::metadata(&path).unwrap();
        assert_eq!(served_result(addr, &path, &opts), before_serial, "{name}");

        write_dataset(&path, &after, &ds.labels).unwrap();
        std::fs::File::options()
            .write(true)
            .open(&path)
            .unwrap()
            .set_modified(meta.modified().unwrap())
            .unwrap();
        let now = std::fs::metadata(&path).unwrap();
        assert_eq!(now.len(), meta.len(), "{name}: same byte length");
        assert_eq!(now.modified().unwrap(), meta.modified().unwrap());
        assert_eq!(
            served_result(addr, &path, &opts),
            after_serial,
            "{name}: a rewritten file must be served from its new contents"
        );
    }

    for addr in [&coordinator, &single, &peer] {
        if let Ok(mut c) = Client::connect(addr) {
            let _ = c.request(&protocol::shutdown_request(false));
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
