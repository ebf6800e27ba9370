//! The process-wide prepared-kernel cache under concurrency: threads
//! racing on fresh devices over images that share a length, or differ
//! only in their certificate, each get exactly the reports a
//! single-threaded run on a freshly prepared kernel gives. (Its own
//! test binary, so no other test can evict entries mid-run.)

use std::sync::{Arc, Barrier};
use udp_asm::{LayoutOptions, ProgramBuilder, ProgramImage, ResourceCert, Target};
use udp_isa::action::{Action, Opcode};
use udp_isa::Reg;
use udp_sim::{ExecBackend, PreparedKernel, Staging, Udp, UdpRunOptions, UdpRunReport};

const BACKENDS: [ExecBackend; 2] = [ExecBackend::Interpreter, ExecBackend::Compiled];
const THREADS: usize = 4;
const ROUNDS: usize = 6;

/// Emits `out` for every `a`, skips every other byte.
fn scanner(out: u8) -> ProgramImage {
    let mut b = ProgramBuilder::new();
    let s = b.add_consuming_state();
    b.set_entry(s);
    let emit = Action::imm(Opcode::EmitB, Reg::R0, Reg::R0, u16::from(out));
    b.labeled_arc(s, u16::from(b'a'), Target::State(s), vec![emit]);
    b.fallback_arc(s, Target::State(s), vec![]);
    b.assemble(&LayoutOptions::default()).unwrap()
}

/// Three images with one code length: two that differ in one code
/// word, and the first again under a certificate whose derived budget
/// (one cycle per byte) the long input overruns.
fn images() -> Vec<ProgramImage> {
    let a = scanner(b'!');
    let mut tight = a.clone();
    tight.cert = Some(ResourceCert {
        max_cycles_per_byte: Some(0),
        max_output_expansion: Some(1),
        ..ResourceCert::default()
    });
    vec![a, scanner(b'?'), tight]
}

fn opts(backend: ExecBackend, parallel: bool) -> UdpRunOptions {
    UdpRunOptions {
        backend,
        parallel,
        ..UdpRunOptions::default()
    }
}

#[test]
fn racing_threads_on_fresh_devices_match_a_single_threaded_reference() {
    let images = images();
    let tables: Vec<_> = images.iter().map(|i| Arc::new(i.predecode())).collect();
    let long = vec![b'a'; 4096];
    let inputs: Vec<&[u8]> = vec![b"abca", &long, b"cab"];
    let staging = Staging::default();
    // reference[image][backend][parallel], each on a freshly prepared
    // kernel that never touches the cache.
    let reference: Vec<Vec<Vec<UdpRunReport>>> = images
        .iter()
        .map(|image| {
            let kernel = PreparedKernel::new(Arc::new(image.clone()));
            BACKENDS
                .iter()
                .map(|&b| {
                    [false, true]
                        .iter()
                        .map(|&p| Udp::new().run(&kernel, &inputs, &staging, &opts(b, p)))
                        .collect::<Result<_, _>>()
                        .unwrap()
                })
                .collect()
        })
        .collect();
    assert_ne!(reference[0][0][0], reference[1][0][0]);
    assert_ne!(reference[0][0][0], reference[2][0][0]);

    let start = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (images, tables, inputs) = (&images, &tables, &inputs);
            let (reference, start, staging) = (&reference, &start, &staging);
            s.spawn(move || {
                start.wait();
                for round in 0..ROUNDS {
                    for k in 0..images.len() {
                        let i = (k + t) % images.len();
                        for (b, &backend) in BACKENDS.iter().enumerate() {
                            let parallel = (round + t) % 2 == 1;
                            let o = opts(backend, parallel);
                            let mut udp = Udp::new();
                            // No table, the image's own, or another
                            // image's: the cache may consult none of
                            // them on a hit, and may trust only the
                            // matching one on a miss. Round 0 offers
                            // image 0 only image 1's table, so whichever
                            // thread prepares image 0 must decline it.
                            let rep = match (round + i + 2) % 3 {
                                0 => udp.try_run_data_parallel(&images[i], inputs, staging, &o),
                                n => {
                                    let table = &tables[(i + n - 1) % tables.len()];
                                    udp.try_run_data_parallel_shared(
                                        &images[i], table, inputs, staging, &o,
                                    )
                                }
                            }
                            .unwrap();
                            assert_eq!(
                                rep,
                                reference[i][b][usize::from(parallel)],
                                "thread {t} round {round} image {i} {backend:?}"
                            );
                        }
                    }
                }
            });
        }
    });
}
