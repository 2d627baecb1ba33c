//! Peer-fault soak for cross-daemon sharding: with the peer fault classes
//! armed at a fixed seed — dispatcher-side drops, stalls and torn request
//! frames, plus response truncation injected by the peers themselves — every
//! sharded job still completes bitwise-identical to the serial engine.
//! Reassignment (dead peers) and at-most-once merging (duplicate spans from
//! retried requests) are what make that hold; this soak is the adversarial
//! check that they do.

use std::sync::Arc;
use std::time::Duration;

use sprint_core::boot::boot_run;
use sprint_core::matrix::Matrix;
use sprint_core::maxt::serial::mt_maxt;
use sprint_core::options::{PmaxtOptions, TestMethod, Workload};
use sprint_jobd::{FaultKind, Faults, JobManager, JobSpec, ManagerConfig, Server, ServerConfig};

const WAIT: Duration = Duration::from_secs(120);

/// Honor a CI-provided `SPRINT_FAULTS` spec; otherwise arm the default so
/// the soak always runs with faults on.
fn soak_faults(default_spec: &str) -> Faults {
    let seed = std::env::var("SPRINT_FAULTS_SEED")
        .ok()
        .and_then(|s| s.parse().ok());
    match std::env::var("SPRINT_FAULTS") {
        Ok(spec) => Faults::parse_spec(&spec, seed).expect("SPRINT_FAULTS must parse"),
        Err(_) => Faults::parse_spec(default_spec, seed).unwrap(),
    }
}

fn synth_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed
        .wrapping_mul(2862933555777941757)
        .wrapping_add(3037000493);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut v = Vec::with_capacity(rows * cols);
    for g in 0..rows {
        let shift = if g % 5 == 0 { 1.2 } else { 0.0 };
        for c in 0..cols {
            let bump = if c >= cols / 2 { shift } else { 0.0 };
            v.push(next() * 4.0 - 2.0 + bump);
        }
    }
    Matrix::from_vec(rows, cols, v).unwrap()
}

/// A peer daemon whose *responses* are subject to truncation and stalls:
/// the coordinator's span dispatch has to retry through real wire damage.
fn spawn_damaged_peer(faults: Faults) -> String {
    let manager = JobManager::new(ManagerConfig {
        workers: 1,
        span: 8,
        cache_dir: None,
        ..ManagerConfig::default()
    })
    .unwrap();
    let server = Server::bind_with(
        "127.0.0.1:0",
        manager,
        ServerConfig {
            faults,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().to_addr_string();
    std::thread::spawn(move || server.run());
    addr
}

/// Six statistics sharded across three daemons while every peer fault class
/// fires: results stay bitwise-identical to serial and the coordinator
/// survives every roster death.
#[test]
fn peer_fault_soak_all_statistics_bitwise_identical() {
    // Coordinator-side classes: injected peer drops (dispatcher declared
    // dead, spans reassigned), stalls before dispatch, torn request frames.
    let faults = soak_faults("peer_drop:0.04,peer_stall:0.03,peer_torn:0.06,seed:1337");
    // Peer-side classes: response truncation and slow responses, so the
    // dispatch retry path sees genuine mid-frame connection drops.
    let peer_faults =
        Faults::parse_spec("frame_truncate:0.05,slow_peer:0.03,seed:99", None).unwrap();

    let dir = std::env::temp_dir().join(format!("jobd-peer-soak-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let peer_a = spawn_damaged_peer(peer_faults.clone());
    let peer_b = spawn_damaged_peer(peer_faults);
    let mgr = Arc::new(
        JobManager::new(ManagerConfig {
            workers: 1,
            span: 8,
            cache_dir: None,
            peers: vec![peer_a, peer_b],
            faults: faults.clone(),
            ..ManagerConfig::default()
        })
        .unwrap(),
    );

    let tests: [(TestMethod, Vec<u8>); 6] = [
        (TestMethod::T, vec![0, 0, 0, 0, 1, 1, 1, 1]),
        (TestMethod::TEqualVar, vec![0, 0, 0, 0, 1, 1, 1, 1]),
        (TestMethod::Wilcoxon, vec![0, 0, 0, 0, 1, 1, 1, 1]),
        (TestMethod::F, vec![0, 0, 1, 1, 2, 2, 2, 2]),
        (TestMethod::PairT, vec![0, 1, 0, 1, 1, 0, 0, 1]),
        (TestMethod::BlockF, vec![0, 1, 1, 0, 0, 1, 1, 0]),
    ];
    for round in 0..3u64 {
        for (test, labels) in &tests {
            let data = synth_matrix(30, labels.len(), 7000 + round * 100 + *test as u64);
            let opts = PmaxtOptions::default()
                .test(*test)
                .permutations(200)
                .seed(23 + round);
            let dataset = dir.join(format!("data-{round}-{test:?}.tsv"));
            microarray::io::write_dataset(&dataset, &data, labels).unwrap();
            let info = mgr
                .submit(JobSpec {
                    data: data.clone(),
                    classlabel: labels.clone(),
                    opts: opts.clone(),
                    source_path: Some(dataset),
                })
                .expect("submit must not fail");
            let served = mgr
                .wait_result(info.id, Some(WAIT))
                .expect("peer faults must never fail a sharded job");
            let serial = mt_maxt(&data, labels, &opts).unwrap();
            assert_eq!(
                served, serial,
                "{test:?} round {round}: sharded result under peer faults \
                 must be bitwise-identical to serial"
            );
            let st = mgr.status(info.id).unwrap();
            let comm = st.comm.expect("sharded job exposes comm counters");
            assert_eq!(
                comm.spans_total,
                comm.spans_local + comm.spans_remote,
                "{test:?} round {round}: every span merged exactly once"
            );
        }

        // Bootstrap gene bands ride the same roster, dispatchers and orphan
        // queue, so the same damage must leave them bitwise-exact too.
        let labels = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let data = synth_matrix(30, labels.len(), 7500 + round);
        let opts = PmaxtOptions::default()
            .workload(Workload::Bootstrap)
            .permutations(200)
            .seed(23 + round);
        let dataset = dir.join(format!("boot-{round}.tsv"));
        microarray::io::write_dataset(&dataset, &data, &labels).unwrap();
        let info = mgr
            .submit(JobSpec {
                data: data.clone(),
                classlabel: labels.clone(),
                opts: opts.clone(),
                source_path: Some(dataset),
            })
            .expect("submit must not fail");
        let served = mgr
            .wait_boot_result(info.id, Some(WAIT))
            .expect("peer faults must never fail a sharded bootstrap job");
        let serial = boot_run(&data, &labels, &opts).unwrap();
        assert_eq!(
            served, serial,
            "bootstrap round {round}: sharded estimates under peer faults \
             must be bitwise-identical to serial"
        );
        let comm = mgr.status(info.id).unwrap().comm.expect("comm counters");
        assert_eq!(
            comm.spans_total,
            comm.spans_local + comm.spans_remote,
            "bootstrap round {round}: every band merged exactly once"
        );
    }

    // The fixed seed makes the draw sequence deterministic enough that each
    // coordinator-side class fires at least once over 18 sharded jobs.
    for kind in [
        FaultKind::PeerDrop,
        FaultKind::PeerStall,
        FaultKind::PeerTorn,
    ] {
        assert!(
            faults.fired(kind) > 0,
            "{kind:?} never fired — soak is not exercising the peer classes"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
