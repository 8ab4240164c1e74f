//! Thread-count independence, end to end: the same model and data give
//! bit-identical results for every team size. Every pass is a replay
//! of recorded per-thread streams in which each output sub-tensor
//! (activation tile, dI tile, dW panel) is reduced by exactly one
//! thread in an order fixed by the loop nest, not by the team size —
//! so training losses, trained parameters and served probabilities
//! must not move by a single bit between T = 1, 2 and 3 (3 divides
//! neither the batch nor most channel-block counts).

use anatomy::conv::PlanCache;
use anatomy::gxm::data::SyntheticData;
use anatomy::gxm::Network;
use anatomy::parallel::ThreadPool;
use anatomy::tensor::rng::SplitMix64;
use anatomy::{InferenceSession, Precision, TuneLevel};
use std::sync::Arc;

const TEAMS: [usize; 3] = [1, 2, 3];

#[test]
fn resnet50_training_is_bit_identical_across_thread_counts() {
    let model = anatomy::topologies::resnet50_model(32, 10);
    let runs: Vec<(Vec<u32>, Vec<u8>)> = TEAMS
        .iter()
        .map(|&threads| {
            // Network::build(spec, minibatch, threads)
            let mut net = Network::build(&model, 4, threads).unwrap();
            let mut data = SyntheticData::new(10, 3, 32, 32, 5);
            let losses = (0..3)
                .map(|_| {
                    let labels = data.next_batch(net.input_mut());
                    net.train_step(&labels, 0.002, 0.9).loss.to_bits()
                })
                .collect();
            (losses, net.state_dict().to_bytes())
        })
        .collect();
    for (threads, (losses, bytes)) in TEAMS.iter().zip(&runs).skip(1) {
        assert_eq!(losses, &runs[0].0, "T={threads}: training losses differ from T=1");
        assert!(bytes == &runs[0].1, "T={threads}: trained StateDict bytes differ from T=1");
    }
}

/// Served probabilities (as bits) of ResNet-50 at 32×32 for each team
/// size; int8 sessions calibrate on one batch and serve another. Each
/// image served alone must also match its slot of the full batch.
fn served_bits(precision: Precision) -> Vec<Vec<u32>> {
    const MB: usize = 2;
    let model = anatomy::topologies::resnet50_model(32, 10).with_seed(11);
    let batch = |seed| {
        let mut v = vec![0.0f32; MB * 3 * 32 * 32];
        SplitMix64::new(seed).fill_f32(&mut v);
        v
    };
    let (calib, probe) = (batch(21), batch(22));
    TEAMS
        .iter()
        .map(|&threads| {
            let pool = Arc::new(ThreadPool::new(threads));
            let mut session = InferenceSession::with_shared_quantized(
                model.clone(),
                MB,
                pool,
                PlanCache::new(),
                TuneLevel::Heuristic,
                precision,
            )
            .unwrap();
            if precision == Precision::Int8 {
                session.calibrate(&calib, MB).unwrap();
                assert!(session.quantized_conv_count() > 0, "int8 row must run int8 convs");
            }
            let bits = |probs: &[f32]| probs.iter().map(|p| p.to_bits()).collect::<Vec<u32>>();
            let full = bits(&session.run(&probe).unwrap().probs);
            let (se, classes) = (session.sample_elems(), session.classes());
            for i in 0..MB {
                let one = session.run_samples(&probe[i * se..(i + 1) * se], 1).unwrap();
                let slot = &full[i * classes..(i + 1) * classes];
                assert_eq!(bits(&one.probs), slot, "T={threads}: image {i} alone vs its slot");
            }
            full
        })
        .collect()
}

#[test]
fn f32_inference_is_bit_identical_across_thread_counts() {
    let outs = served_bits(Precision::F32);
    for (threads, o) in TEAMS.iter().zip(&outs).skip(1) {
        assert_eq!(o, &outs[0], "T={threads}: f32 probs differ from T=1");
    }
}

#[test]
fn int8_inference_is_bit_identical_across_thread_counts() {
    let outs = served_bits(Precision::Int8);
    for (threads, o) in TEAMS.iter().zip(&outs).skip(1) {
        assert_eq!(o, &outs[0], "T={threads}: int8 probs differ from T=1");
    }
}
