//! Micro-benchmarks for the from-scratch codec on 4 KiB pages (the SFM
//! datapath unit) across representative corpora.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use xfm_compress::{Codec, Corpus, Scratch, XDeflate};

fn bench(c: &mut Criterion) {
    let corpora = [
        Corpus::EnglishText,
        Corpus::Json,
        Corpus::ZeroPage,
        Corpus::RandomBytes,
    ];
    let mut group = c.benchmark_group("codec");
    group.throughput(Throughput::Bytes(4096));
    group.sample_size(20);
    let codec = XDeflate::default();
    for corpus in corpora {
        let page = corpus.generate(11, 4096);
        group.bench_function(format!("xdeflate/compress/{}", corpus.name()), |b| {
            b.iter(|| {
                let mut out = Vec::with_capacity(4096);
                codec.compress(black_box(&page), &mut out).unwrap();
                out
            })
        });
        // The zero-allocation hot path: scratch state and output
        // buffer live across iterations, as in the swap daemon.
        group.bench_function(
            format!("xdeflate/compress-scratch/{}", corpus.name()),
            |b| {
                let mut scratch = Scratch::new();
                let mut out = Vec::with_capacity(2 * 4096);
                b.iter(|| {
                    out.clear();
                    codec
                        .compress_into(black_box(&page), &mut out, &mut scratch)
                        .unwrap();
                    black_box(out.len())
                })
            },
        );
        let mut compressed = Vec::new();
        codec.compress(&page, &mut compressed).unwrap();
        group.bench_function(format!("xdeflate/decompress/{}", corpus.name()), |b| {
            b.iter(|| {
                let mut out = Vec::with_capacity(4096);
                codec.decompress(black_box(&compressed), &mut out).unwrap();
                out
            })
        });
        group.bench_function(
            format!("xdeflate/decompress-scratch/{}", corpus.name()),
            |b| {
                let mut scratch = Scratch::new();
                let mut out = Vec::with_capacity(4096);
                b.iter(|| {
                    out.clear();
                    codec
                        .decompress_into(black_box(&compressed), &mut out, &mut scratch)
                        .unwrap();
                    black_box(out.len())
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
