//! Unit-cost probes: direct calls into the crypto, bank and ledger
//! layers, so a workload's exact operation counts can be priced
//! (`bank.est_share` = transfers per unit × µs per transfer / unit
//! wall time).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use gm_crypto::Keypair;
use gm_ledger::SharedJournal;
use gm_tycoon::{Bank, Credits};
use gridmarket::ChaosConfig;

/// Timed batches per probe; the best batch is reported, as the
/// end-to-end metrics report each input's best round.
const BATCHES: usize = 15;
/// Operations per batch.
const OPS: usize = 200;

/// Best over `BATCHES` batches of the µs per op of `f(batch)`, which
/// must perform `OPS` operations.
fn per_op_us(mut f: impl FnMut(usize)) -> f64 {
    (0..BATCHES)
        .map(|b| {
            let t0 = Instant::now();
            f(b);
            t0.elapsed().as_secs_f64() * 1e6 / OPS as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// All probes. The recovery probe replays the whole journal of the chaos
/// world `chaos_seed` run without bank restarts: a restart checkpoints
/// the journal, so a world that had one leaves only the few records
/// written after it.
pub fn run(chaos_seed: u64) -> BTreeMap<&'static str, f64> {
    crate::stats::pin_to_quietest_cpu();
    let kp = Keypair::from_seed(b"perfbench-probe");
    let msgs: Vec<Vec<u8>> = (0..BATCHES * OPS)
        .map(|i| format!("transfer {i} from 7 to 9 amount 1000").into_bytes())
        .collect();
    let sign_us = per_op_us(|b| {
        for m in &msgs[b * OPS..(b + 1) * OPS] {
            black_box(kp.sign(m));
        }
    });
    let sigs: Vec<_> = msgs.iter().map(|m| kp.sign(m)).collect();
    let verify_us = per_op_us(|b| {
        for i in b * OPS..(b + 1) * OPS {
            assert!(
                kp.public.verify(&msgs[i], &sigs[i]),
                "probe signature rejected"
            );
        }
    });

    // A journaled bank moving credits back and forth.
    let mut bank = Bank::new(b"perfbench-probe-bank");
    bank.attach_ledger(SharedJournal::default());
    let a = bank.open_account(kp.public, "a");
    let c = bank.open_account(kp.public, "c");
    bank.mint(a, Credits::from_whole(1_000_000)).expect("mint");
    bank.mint(c, Credits::from_whole(1_000_000)).expect("mint");
    let transfer_us = per_op_us(|b| {
        let (from, to) = if b % 2 == 0 { (a, c) } else { (c, a) };
        for _ in 0..OPS {
            black_box(
                bank.transfer(from, to, Credits::from_whole(1))
                    .expect("transfer"),
            );
        }
    });

    let journal = SharedJournal::default();
    ChaosConfig {
        bank_restarts: 0,
        ..ChaosConfig::default()
    }
    .scenario(chaos_seed)
    .ledger(journal.clone())
    .run()
    .expect("chaos world");
    let bank_seed = chaos_seed.to_be_bytes();
    let mut records = 0;
    let recover_us = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            let (bank, report) = Bank::recover(&bank_seed, &journal).expect("recover");
            let us = t0.elapsed().as_secs_f64() * 1e6;
            black_box(bank);
            records = report.records_replayed.max(1);
            us / records as f64
        })
        .fold(f64::INFINITY, f64::min);

    BTreeMap::from([
        ("crypto.sign_us", sign_us),
        ("crypto.verify_us", verify_us),
        ("bank.transfer_us", transfer_us),
        ("ledger.recover_us_per_record", recover_us),
        ("ledger.recover_records", records as f64),
    ])
}
