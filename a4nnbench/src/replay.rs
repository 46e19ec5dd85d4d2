//! Per-layer measurements of traced runs: the run's own genomes, data and
//! fitness sequences replayed through each crate's public functions after
//! the measured search has finished, plus counts read from its output.

use crate::trace::Tracer;
use crate::util::median;
use a4nn_core::prelude::*;
use a4nn_core::RunOutput;
use a4nn_lineage::{ModelRecord, Terminated};
use a4nn_nn::layers::{BatchNorm2d, Conv2d, Dense, MaxPool2d, Relu};
use a4nn_nn::{cross_entropy_ws, Dataset, NetSpec, Network, Sgd, Tensor2, Tensor4, Workspace};
use a4nn_nsga::{environmental_selection, Individual, Objectives};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

fn seconds<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

fn spec_of(space: &SearchSpace, record: &ModelRecord) -> NetSpec {
    netspec_from_arch(&space.decode(&record.genome))
}

/// PENGUIN and NSGA-II work and the engine's outcome, from any search.
pub fn search_layers(t: &Tracer, cfg: &WorkflowConfig, records: &[ModelRecord], steps: u64) {
    t.add("penguin.steps", steps as f64);
    let budget = f64::from(cfg.nas.epochs) * records.len() as f64;
    let trained: f64 = records.iter().map(|r| f64::from(r.epochs_trained())).sum();
    t.add("penguin.epochs_saved_pct", 100.0 * (1.0 - trained / budget));
    let early = records
        .iter()
        .filter(|r| r.termination == Terminated::Early)
        .count();
    t.add("penguin.early_frac", early as f64 / records.len() as f64);

    // Every model's fitness sequence through a fresh engine, one step per
    // epoch, as the training loop drives it.
    if let Some(engine_cfg) = &cfg.engine {
        let mut step_us = Vec::new();
        for r in records {
            let mut engine = PredictionEngine::new(engine_cfg.clone());
            for e in &r.epochs {
                engine.observe(e.epoch, e.val_acc);
                let (_, s) = seconds(|| engine.step());
                step_us.push(s * 1e6);
            }
        }
        t.add("penguin.step_us_p50", median(&step_us));
    }

    // Environmental selection over each generation's archive.
    let archive: Vec<Individual<Genome>> = records
        .iter()
        .map(|r| Individual {
            id: r.model_id,
            generation: r.generation,
            genome: r.genome.clone(),
            objectives: Objectives::new(r.objective_values.clone()),
        })
        .collect();
    let first = records.iter().map(|r| r.generation).min().unwrap_or(0);
    let last = records.iter().map(|r| r.generation).max().unwrap_or(0);
    let mut select_us = Vec::new();
    for g in first + 1..=last {
        let upto = archive.iter().take_while(|i| i.generation <= g).count();
        let pool: Vec<usize> = (0..upto).collect();
        for _ in 0..5 {
            let (kept, s) =
                seconds(|| environmental_selection(&archive, &pool, cfg.nas.population));
            std::hint::black_box(kept);
            select_us.push(s * 1e6);
        }
    }
    t.add("nsga.select_us", median(&select_us));
}

/// Generation times and the share of trainer-thread time spent outside
/// `Trainer` calls, from the boundary hook and the traced trainers.
pub fn core_layers(t: &Tracer, output: &RunOutput, trainer_threads: usize) {
    let gens = t.series("core.generation_s");
    let wall: f64 = gens.iter().sum();
    let busy: f64 = ["nn.make", "nn.epoch", "nn.snapshot", "nn.cost"]
        .iter()
        .map(|name| t.total(name))
        .sum();
    if wall > 0.0 && busy > 0.0 {
        t.add(
            "core.thread_idle_frac",
            1.0 - busy / (wall * trainer_threads as f64),
        );
    }
    t.set_series("core.generation_s", vec![median(&gens)]);
    t.add("sched.idle_frac", 1.0 - output.schedule.utilization());
}

/// One epoch of every model of the run, replayed through
/// `Network::forward_ws`/`backward_ws`, `Sgd::step` and
/// `evaluate_dataset` on the run's own data.
pub fn nn_phases(
    t: &Tracer,
    space: &SearchSpace,
    records: &[ModelRecord],
    train: &Dataset,
    val: &Dataset,
) {
    let hyper = TrainingHyperparams::default();
    let (mut fwd, mut bwd, mut opt_s, mut eval) = (0.0, 0.0, 0.0, 0.0);
    for r in records {
        let mut rng = StdRng::seed_from_u64(r.model_id);
        let mut net = Network::new(&spec_of(space, r), &mut rng);
        let mut opt = Sgd::new(hyper.lr, hyper.momentum, hyper.weight_decay);
        let mut ws = Workspace::new();
        let mut images = ws.t4_scratch(
            hyper.batch_size.min(train.len()),
            train.channels,
            train.height,
            train.width,
        );
        let mut labels = ws.take_labels();
        let mut batches = train.shuffled_batches(hyper.batch_size, &mut rng);
        while batches.next_into(&mut images, &mut labels) {
            let (logits, s) = seconds(|| net.forward_ws(&images, true, &mut ws));
            fwd += s;
            let loss = cross_entropy_ws(&logits, &labels, &mut ws);
            ws.give2(logits);
            let ((), s) = seconds(|| net.backward_ws(&loss.dlogits, &mut ws));
            bwd += s;
            ws.give2(loss.dlogits);
            ws.give2(loss.probs);
            let ((), s) = seconds(|| opt.step(&mut net));
            opt_s += s;
        }
        ws.give4(images);
        ws.give_labels(labels);
        let (acc, s) = seconds(|| net.evaluate_dataset(val, hyper.eval_chunk, &mut ws));
        std::hint::black_box(acc);
        eval += s;
    }
    t.add("nn.forward_s", fwd);
    t.add("nn.backward_s", bwd);
    t.add("nn.optim_s", opt_s);
    t.add("nn.eval_s", eval);
}

const LAYER_REPS: usize = 15;

fn random4(rng: &mut impl Rng, n: usize, c: usize, h: usize, w: usize) -> Tensor4 {
    Tensor4::from_vec(
        n,
        c,
        h,
        w,
        (0..n * c * h * w)
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect(),
    )
}

/// Median (forward, backward) seconds of one layer call; `step` runs one
/// forward then one backward (which consumes what the forward cached) and
/// returns their times.
fn time_pair(mut step: impl FnMut(&mut Workspace) -> (f64, f64)) -> (f64, f64) {
    let mut ws = Workspace::new();
    let (mut f, mut b) = (Vec::new(), Vec::new());
    for _ in 0..LAYER_REPS {
        let (fs, bs) = step(&mut ws);
        f.push(fs);
        b.push(bs);
    }
    (median(&f), median(&b))
}

/// Per-call (forward, backward) seconds of each layer kind at one phase's
/// shapes: stem conv, node conv, BN, ReLU, pool.
struct PhaseCost {
    stem: (f64, f64),
    node: (f64, f64),
    bn: (f64, f64),
    relu: (f64, f64),
    pool: (f64, f64),
    stem_flops: f64,
    node_flops: f64,
}

fn conv_cost(
    rng: &mut StdRng,
    n: usize,
    c_in: usize,
    c: usize,
    k: usize,
    h: usize,
    w: usize,
) -> ((f64, f64), f64) {
    let mut conv = Conv2d::new(c_in, c, k, rng);
    let x = random4(rng, n, c_in, h, w);
    let g = random4(rng, n, c, h, w);
    let cost = time_pair(|ws| {
        let (y, fs) = seconds(|| conv.forward_ws(&x, ws));
        ws.give4(y);
        let (dx, bs) = seconds(|| conv.backward_ws(&g, ws));
        ws.give4(dx);
        (fs, bs)
    });
    (cost, conv.flops(h, w))
}

fn phase_cost(
    rng: &mut StdRng,
    n: usize,
    c_in: usize,
    c: usize,
    k: usize,
    h: usize,
    w: usize,
) -> PhaseCost {
    let (stem, stem_flops) = conv_cost(rng, n, c_in, c, k, h, w);
    let (node, node_flops) = conv_cost(rng, n, c, c, k, h, w);
    let x = random4(rng, n, c, h, w);
    let g = random4(rng, n, c, h, w);
    let mut bn = BatchNorm2d::new(c);
    let bn_cost = time_pair(|ws| {
        let (y, fs) = seconds(|| bn.forward_ws(&x, true, ws));
        ws.give4(y);
        let grad = g.clone();
        let (dx, bs) = seconds(|| bn.backward_owned(grad, ws));
        ws.give4(dx);
        (fs, bs)
    });
    let mut relu = Relu::new();
    let relu_cost = time_pair(|_| {
        let input = x.clone();
        let (y, fs) = seconds(|| relu.forward_owned(input));
        std::hint::black_box(y);
        let grad = g.clone();
        let (dx, bs) = seconds(|| relu.backward_owned(grad));
        std::hint::black_box(dx);
        (fs, bs)
    });
    let mut pool = MaxPool2d::new();
    let gp = random4(rng, n, c, (h / 2).max(1), (w / 2).max(1));
    let pool_cost = time_pair(|ws| {
        let (y, fs) = seconds(|| pool.forward_ws(&x, ws));
        ws.give4(y);
        let (dx, bs) = seconds(|| pool.backward_ws(&gp, ws));
        ws.give4(dx);
        (fs, bs)
    });
    PhaseCost {
        stem,
        node,
        bn: bn_cost,
        relu: relu_cost,
        pool: pool_cost,
        stem_flops,
        node_flops,
    }
}

/// Each layer kind timed through its public struct at the run's shapes,
/// weighted by how often the run's networks use it: the seconds one
/// training batch of the run's average network spends in each kind.
pub fn nn_layer_kinds(t: &Tracer, space: &SearchSpace, records: &[ModelRecord], train: &Dataset) {
    let n = TrainingHyperparams::default().batch_size.min(train.len());
    let mut rng = StdRng::seed_from_u64(7);
    let (mut h, mut w) = (train.height, train.width);
    let mut c_in = train.channels;
    let mut phases = Vec::new();
    for &c in &space.channels {
        phases.push(phase_cost(&mut rng, n, c_in, c, space.kernel, h, w));
        c_in = c;
        h = (h / 2).max(1);
        w = (w / 2).max(1);
    }
    let classes = space.num_classes;
    let mut dense = Dense::new(c_in, classes, &mut rng);
    let xd = Tensor2::from_vec(
        n,
        c_in,
        (0..n * c_in).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
    );
    let gd = Tensor2::from_vec(
        n,
        classes,
        (0..n * classes)
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect(),
    );
    let dense_cost = time_pair(|ws| {
        let (y, fs) = seconds(|| dense.forward_ws(&xd, ws));
        ws.give2(y);
        let (dx, bs) = seconds(|| dense.backward_ws(&gd, ws));
        ws.give2(dx);
        (fs, bs)
    });

    let mut sums = [0.0f64; 8];
    let mut conv_flops = 0.0;
    for r in records {
        let spec = spec_of(space, r);
        for (p, cost) in spec.phases.iter().zip(&phases) {
            let nodes = p.node_inputs.len() as f64;
            let blocks = 1.0 + nodes;
            sums[0] += cost.stem.0 + nodes * cost.node.0;
            sums[1] += cost.stem.1 + nodes * cost.node.1;
            sums[2] += blocks * cost.bn.0;
            sums[3] += blocks * cost.bn.1;
            sums[4] += blocks * cost.relu.0;
            sums[5] += blocks * cost.relu.1;
            sums[6] += cost.pool.0;
            sums[7] += cost.pool.1;
            conv_flops += cost.stem_flops + nodes * cost.node_flops;
        }
    }
    let models = records.len().max(1) as f64;
    let names = [
        "nn.conv.fwd_s",
        "nn.conv.bwd_s",
        "nn.bn.fwd_s",
        "nn.bn.bwd_s",
        "nn.relu.fwd_s",
        "nn.relu.bwd_s",
        "nn.pool.fwd_s",
        "nn.pool.bwd_s",
    ];
    for (name, sum) in names.iter().zip(sums) {
        t.add(name, sum / models);
    }
    t.add("nn.dense.fwd_s", dense_cost.0);
    t.add("nn.dense.bwd_s", dense_cost.1);
    let mflop = conv_flops / models / 1e6;
    t.add("nn.conv.mflop", mflop);
    t.add(
        "nn.conv.gflops",
        mflop * 1e6 * n as f64 / (sums[0] / models) / 1e9,
    );
}
