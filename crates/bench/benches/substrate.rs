//! Criterion micro-benchmarks of the substrates: bitmaps, diffs, the wire
//! codec, the shared access path (words and runs), round trips through the
//! reliability engine over a corrupting wire, and a whole small cluster run
//! (lock hand-off latency).

use criterion::{criterion_group, criterion_main, Criterion};
use cvm_dsm::{Cluster, DsmConfig, Msg};
use cvm_net::wire::{crc32c, Wire};
use cvm_net::{ByteBreakdown, Endpoint, FaultPlan, NetConfig, Network, TrafficClass};
use cvm_page::{Bitmap, Diff, PageId};
use cvm_race::make_interval;
use cvm_vclock::{ProcId, VClock};
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Duration;

fn bench_bitmap_ops(c: &mut Criterion) {
    let mut a = Bitmap::new(1024);
    let mut b = Bitmap::new(1024);
    for i in (0..1024).step_by(5) {
        a.set(i);
    }
    for i in (2..1024).step_by(7) {
        b.set(i);
    }
    c.bench_function("bitmap_overlap_1024", |bch| {
        bch.iter(|| black_box(a.overlaps(black_box(&b))))
    });
    c.bench_function("bitmap_overlap_words_1024", |bch| {
        bch.iter(|| black_box(a.overlap_words(&b).count()))
    });
    // Marking a whole 1024-word page accessed: bit by bit, and as one range.
    c.bench_function("bitmap_set_x1024", |bch| {
        bch.iter(|| {
            let bm = black_box(&mut a);
            for i in 0..1024 {
                bm.set(i);
            }
        })
    });
    c.bench_function("bitmap_set_range_1024", |bch| {
        bch.iter(|| black_box(&mut a).set_range(black_box(0), black_box(1024)))
    });
}

fn bench_diff(c: &mut Criterion) {
    let twin: Vec<u64> = (0..1024).map(|i| i as u64).collect();
    let mut cur = twin.clone();
    for i in (0..1024).step_by(9) {
        cur[i] ^= 0xFF;
    }
    c.bench_function("diff_make_1024_words", |b| {
        b.iter(|| black_box(Diff::make(PageId(0), black_box(&twin), black_box(&cur))))
    });
    let d = Diff::make(PageId(0), &twin, &cur);
    c.bench_function("diff_apply_114_entries", |b| {
        b.iter(|| {
            let mut data = twin.clone();
            d.apply(&mut data);
            black_box(data)
        })
    });
}

fn bench_codec(c: &mut Criterion) {
    let records: Vec<_> = (0..32)
        .map(|i| {
            let mut vc = vec![0u32; 8];
            vc[(i % 8) as usize] = i / 8 + 1;
            std::sync::Arc::new(make_interval(
                (i % 8) as u16,
                i / 8 + 1,
                vc,
                &[i, i + 1, i + 2],
                &[i + 3, i + 4, i + 5, i + 6],
            ))
        })
        .collect();
    let msg = Msg::LockGrant {
        lock: 3,
        records,
        vc: VClock::from(vec![4, 4, 4, 4, 4, 4, 4, 4]),
        trace_from: None,
    };
    let bytes = msg.to_bytes();
    c.bench_function("encode_lock_grant_32_records", |b| {
        b.iter(|| black_box(msg.to_bytes()))
    });
    c.bench_function("decode_lock_grant_32_records", |b| {
        b.iter(|| black_box(Msg::from_bytes(black_box(&bytes)).unwrap()))
    });

    // An 8 KB page reply: the bulk `u64` codec, and the checksum every
    // frame and journal record is put through.
    let page = Msg::PageReadReply {
        page: PageId(7),
        data: (0..1024u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect(),
    };
    let page_bytes = page.to_bytes();
    c.bench_function("page_decode_8k", |b| {
        b.iter(|| black_box(Msg::from_bytes(black_box(&page_bytes)).unwrap()))
    });
    c.bench_function("crc32c_8k", |b| {
        b.iter(|| black_box(crc32c(black_box(&page_bytes))))
    });
}

fn bench_lock_handoff(c: &mut Criterion) {
    c.bench_function("cluster_2proc_lock_pingpong_x50", |b| {
        b.iter(|| {
            let report = Cluster::run(
                DsmConfig::new(2),
                |alloc| alloc.alloc("n", 8).unwrap(),
                |h, &n| {
                    for _ in 0..50 {
                        h.lock(1);
                        let v = h.read(n);
                        h.write(n, v + 1);
                        h.unlock(1);
                    }
                    h.barrier();
                },
            )
            .expect("cluster run");
            black_box(report.virtual_cycles())
        })
    });
}

fn send(ep: &Endpoint, dst: u16, payload: Vec<u8>) {
    let len = payload.len() as u64;
    ep.sender()
        .send(
            ProcId(dst),
            0,
            ByteBreakdown::single(TrafficClass::Data, len),
            payload,
        )
        .expect("peer alive");
}

/// 64 request/reply round trips between two nodes through the reliability
/// engine (RTO 2/16 ms), over a wire that damages 5 % of frames and over
/// one that loses 5 % of data datagrams: the cost of repairing a damaged
/// frame, and of recovering a lost one — with one datagram in flight,
/// every loss is a tail loss — which a clean hop does not see.
fn bench_reliable_echo(c: &mut Criterion) {
    for (name, plan) in [
        (
            "reliable_echo_corrupt_x64",
            FaultPlan::clean(2028).with_corruption(0.05),
        ),
        ("reliable_echo_loss_x64", FaultPlan::new(0.05, 2031)),
    ] {
        let plan = plan.with_rto(Duration::from_millis(2), Duration::from_millis(16));
        let (mut eps, _, _) = Network::with_loss(2, NetConfig::default(), plan);
        let echo = eps.pop().expect("two endpoints");
        let ping = eps.pop().expect("two endpoints");
        // An empty payload ends the echo.
        let echoer = std::thread::spawn(move || {
            while let Ok(pkt) = echo.recv() {
                if pkt.payload.is_empty() {
                    break;
                }
                send(&echo, 0, pkt.payload);
            }
        });
        c.bench_function(name, |b| {
            b.iter(|| {
                for _ in 0..64 {
                    send(&ping, 1, vec![1; 64]);
                    black_box(ping.recv().expect("echo"));
                }
            })
        });
        send(&ping, 1, Vec::new());
        echoer.join().expect("echo thread");
    }
}

/// One resident 512-word page read and written with detection on: a word at
/// a time (512 trips through the access path) and as one run.
fn bench_shared_access(c: &mut Criterion) {
    let c = Mutex::new(c);
    Cluster::run(
        DsmConfig::new(1),
        |alloc| alloc.alloc_page_aligned("page", 4096).unwrap(),
        |h, &page| {
            let mut c = c.lock().expect("bench thread panicked");
            let mut buf = [0u64; 512];
            h.write_run(page, &buf);
            c.bench_function("dsm_read_word_x512", |b| {
                b.iter(|| {
                    for (i, w) in buf.iter_mut().enumerate() {
                        *w = h.read(page.word(i as u64));
                    }
                    black_box(&buf);
                })
            });
            c.bench_function("dsm_read_run_512", |b| {
                b.iter(|| {
                    h.read_run(page, &mut buf);
                    black_box(&buf);
                })
            });
            c.bench_function("dsm_write_word_x512", |b| {
                b.iter(|| {
                    for (i, w) in black_box(&buf).iter().enumerate() {
                        h.write(page.word(i as u64), *w);
                    }
                })
            });
            c.bench_function("dsm_write_run_512", |b| {
                b.iter(|| h.write_run(page, black_box(&buf)))
            });
            h.barrier();
        },
    )
    .expect("cluster run");
}

fn config() -> Criterion {
    Criterion::default().sample_size(10)
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_bitmap_ops, bench_diff, bench_codec, bench_shared_access, bench_reliable_echo,
        bench_lock_handoff
}
criterion_main!(benches);
