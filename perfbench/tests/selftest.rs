//! Self-tests of the benchmark, at tiny sizes.
//!
//! Run from the repository root with
//! `cargo test --release --offline --manifest-path perfbench/Cargo.toml`.
//! They build the `pmaxt` binary into `perfbench/.work/selftest-target`
//! (a target directory of their own, so the build never waits on the lock
//! of the directory the tests themselves were built in).

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::{Mutex, OnceLock};

use perfbench::gen::{self, Data, Scale};
use perfbench::{execute, Bench, Kind};
use sprint_jobd::json::Json;

/// Tests share daemons' CPU and the reports directory; run them one at a
/// time.
static SERIAL: Mutex<()> = Mutex::new(());

fn root() -> PathBuf {
    // Tests run with the package directory as cwd; a relative root keeps
    // unix socket paths short.
    PathBuf::from("..")
}

fn pmaxt() -> &'static Path {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(|| {
        let target = std::fs::canonicalize(root())
            .expect("repository root")
            .join("perfbench/.work/selftest-target");
        let status = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
            .args([
                "build",
                "--release",
                "--offline",
                "--quiet",
                "-p",
                "sprint-repro",
            ])
            .args(["--bin", "pmaxt", "--target-dir"])
            .arg(&target)
            .current_dir(root())
            .env_remove("CARGO_TARGET_DIR")
            .status()
            .expect("spawn cargo");
        assert!(status.success(), "building pmaxt failed");
        target.join("release/pmaxt")
    })
}

fn bench(kind: Kind, seed: u64, trace: bool) -> Bench {
    Bench {
        kind,
        seed,
        seconds: 0.6,
        trace,
        pmaxt: pmaxt().to_path_buf(),
        root: root(),
        work: root().join("perfbench/.work/selftest"),
        scale: Scale::tiny(),
        corrupt_reference: false,
    }
}

/// (name, unit) pairs of one metric list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let j = Json::parse(text.trim()).expect("BENCHMARK.json parses");
    j.get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m.get("name").and_then(Json::as_str).unwrap().to_string(),
                m.get("unit").and_then(Json::as_str).unwrap().to_string(),
            )
        })
        .collect()
}

fn printed(line: &str) -> (Json, Vec<(String, String)>) {
    let j = Json::parse(line).expect("result line is JSON");
    let metrics = match j.get("metrics") {
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    v.get("unit").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect(),
        _ => panic!("metrics object missing"),
    };
    (j, metrics)
}

#[test]
fn tiny_run_emits_every_named_metric_with_its_unit() {
    let _g = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    for kind in [Kind::PaperRun, Kind::ShardStream, Kind::ServeMix] {
        for (trace, want) in [(false, &e2e), (true, &layers)] {
            let out = execute(&bench(kind, 7, trace)).expect("run succeeds");
            let (j, got) = printed(&out.line);
            assert_eq!(&got, want, "{kind:?} trace={trace}: metric names/units");
            assert_eq!(
                j.get("correct").and_then(Json::as_bool),
                Some(true),
                "{}",
                out.line
            );
            assert_eq!(j.get("failed").and_then(Json::as_u64), Some(0));
            assert!(j.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
            for (name, v, _) in &out.metrics {
                assert!(v.is_finite(), "{kind:?}: {name} = {v}");
            }
        }
    }
}

#[test]
fn corrupted_reference_shows_up_as_failure() {
    let _g = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    for kind in [Kind::PaperRun, Kind::ServeMix] {
        let mut b = bench(kind, 8, false);
        b.corrupt_reference = true;
        let out = execute(&b).expect("run succeeds");
        assert!(out.e2e.attempted > 0);
        assert_eq!(
            out.e2e.failed, out.e2e.attempted,
            "{kind:?}: every job must fail"
        );
        let (j, _) = printed(&out.line);
        assert_eq!(j.get("correct").and_then(Json::as_bool), Some(false));
    }
}

#[test]
fn same_seed_yields_identical_datasets_and_job_lists() {
    let dir = root().join("perfbench/.work/selftest-inputs");
    let write = |seed: u64, sub: &str| -> Vec<Vec<u8>> {
        let b = Bench {
            seed,
            ..bench_without_binary()
        };
        let d = dir.join(sub);
        std::fs::create_dir_all(&d).unwrap();
        [Data::Paper, Data::Big]
            .iter()
            .map(|&data| std::fs::read(gen::write_data(&b, data, &d).unwrap()).unwrap())
            .collect()
    };
    let a = write(5, "a");
    let b = write(5, "b");
    let c = write(6, "c");
    assert_eq!(a, b, "same seed, same dataset bytes");
    assert_ne!(a, c, "another seed, another dataset");

    let plans = |seed: u64| -> String {
        let b = Bench {
            seed,
            ..bench_without_binary()
        };
        let mut all = gen::single_plan(&b, gen::Class::Paper, 40);
        all.extend(gen::single_plan(&b, gen::Class::Shard, 40));
        all.extend(gen::mix_plan(&b, 0));
        all.extend(gen::mix_plan(&b, 1));
        all.iter().map(|t| t.describe() + "\n").collect()
    };
    assert_eq!(plans(5), plans(5), "same seed, same job lists");
    assert_ne!(plans(5), plans(6));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mix_deck_proportions_hold_in_every_block() {
    let b = bench_without_binary();
    let plan = gen::mix_plan(&b, 1);
    let block: usize = gen::MIX_DECK.iter().map(|&(_, n)| n).sum();
    for chunk in plan.chunks_exact(block) {
        for &(class, n) in &gen::MIX_DECK {
            assert_eq!(chunk.iter().filter(|t| t.class == class).count(), n);
        }
    }
}

#[test]
fn mix_hits_never_repeat_within_the_covered_jobs() {
    let b = Bench {
        scale: Scale::full(),
        ..bench_without_binary()
    };
    let s = &b.scale;
    let block: usize = gen::MIX_DECK.iter().map(|&(_, n)| n).sum();
    let per_block = |class| {
        gen::MIX_DECK
            .iter()
            .find(|&&(c, _)| c == class)
            .map_or(0, |&(_, n)| n)
    };
    // Jobs per client before either of its hit pools runs out.
    let covered = block
        * (s.hit_pool / 2 / per_block(gen::Class::HitPaper))
            .min(s.big_hit_pool / 2 / per_block(gen::Class::HitBig));
    assert!(covered >= 280, "pools cover only {covered} jobs per client");
    for client in 0..2 {
        let mut seen = HashSet::new();
        for t in gen::mix_plan(&b, client).iter().take(covered) {
            if t.expect == gen::Expect::Hit {
                assert!(
                    seen.insert((t.data, t.opts.seed)),
                    "client {client}: {} repeats a hit",
                    t.describe()
                );
            }
        }
    }
}

fn bench_without_binary() -> Bench {
    Bench {
        kind: Kind::ServeMix,
        seed: 1,
        seconds: 1.0,
        trace: false,
        pmaxt: PathBuf::new(),
        root: root(),
        work: root().join("perfbench/.work/selftest"),
        scale: Scale::tiny(),
        corrupt_reference: false,
    }
}
