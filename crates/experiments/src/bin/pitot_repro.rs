//! `pitot-repro`: regenerates every table and figure of the Pitot paper.
//!
//! ```text
//! pitot-repro [--full] [--out DIR] <command>
//!
//! commands:
//!   fig1 table2 table3            dataset-side reproductions
//!   fig4a fig4b fig4c fig4d       method ablations
//!   fig5 fig6a fig6b fig8 fig11   accuracy / uncertainty comparisons
//!   fig10                         hyperparameter ablations
//!   fig7 fig12                    embedding interpretation
//!   summary                       Sec 5.3 headline numbers
//!   orchestration shift online    extension studies (placement, pool
//!   serving fleet chaos sched     robustness, online learning, streaming
//!   poison                        poisoned-telemetry guard study
//!   compress                      compressed-tower conformal compensation
//!   conformal optimizer           recalibration, multi-replica fleet
//!                                 serving, fault-injected degraded-mode
//!                                 serving, conformal placement,
//!                                 conformal variants, optimizer ablation)
//!   all                           everything above
//! ```
//!
//! `--full` switches from the reduced single-core settings to paper-scale
//! training (App B.3); output format is identical. Each figure is printed as
//! uniform rows and written to `<out>/<id>.json`.

use pitot_experiments::{
    ablations, baseline_cmp, baselines_ext, chaos, compress, conformal_variants, dataset_report,
    embeddings, fleet, hyperparams, online, optimizer_cmp, orchestration, poison, sched, serving,
    shift, uncertainty,
};
use pitot_experiments::{Figure, Harness, Scale};
use std::path::PathBuf;
use std::time::Instant;

/// One runnable command: its name, whether `all` includes it, and the
/// figures it produces.
type Command = (&'static str, bool, fn(&Harness) -> Vec<Figure>);

/// Every command, in the order `all` runs them. `stats` and `wcet` are
/// runnable by name but left out of `all` and `--help`.
const COMMANDS: &[Command] = &[
    ("fig1", true, |h| vec![dataset_report::fig1(h)]),
    ("table2", true, |h| vec![dataset_report::table2(h)]),
    ("stats", false, |h| vec![dataset_report::stats(h)]),
    ("table3", true, |h| vec![dataset_report::table3(h)]),
    ("fig4a", true, |h| vec![ablations::fig4a(h)]),
    ("fig4b", true, |h| vec![ablations::fig4b(h)]),
    ("fig4c", true, |h| vec![ablations::fig4c(h)]),
    ("fig4d", true, |h| vec![ablations::fig4d(h)]),
    ("fig5", true, |h| vec![uncertainty::fig5(h)]),
    ("fig6a", true, |h| vec![baseline_cmp::fig6a(h)]),
    ("fig6b", true, |h| vec![uncertainty::fig6b(h)]),
    ("fig8", true, |h| vec![uncertainty::fig8(h)]),
    ("wcet", false, |h| vec![uncertainty::wcet_extension(h)]),
    ("fig10", true, |h| {
        hyperparams::Sweep::ALL
            .iter()
            .map(|s| hyperparams::fig10_row(h, *s))
            .collect()
    }),
    ("fig11", true, |h| vec![uncertainty::fig11(h)]),
    ("fig7", true, |h| vec![embeddings::fig7(h)]),
    ("fig12", true, |h| {
        vec![embeddings::fig12bc(h), embeddings::fig12d(h)]
    }),
    ("summary", true, |h| vec![baseline_cmp::summary(h)]),
    ("orchestration", true, |h| {
        vec![orchestration::ext_orchestration(h)]
    }),
    ("shift", true, |h| vec![shift::ext_shift(h)]),
    ("online", true, |h| vec![online::ext_online(h)]),
    ("serving", true, |h| vec![serving::ext_serving(h)]),
    ("fleet", true, |h| vec![fleet::ext_fleet(h)]),
    ("chaos", true, |h| vec![chaos::ext_chaos(h)]),
    ("poison", true, |h| vec![poison::ext_poison(h)]),
    ("compress", true, |h| vec![compress::ext_compress(h)]),
    ("sched", true, |h| vec![sched::ext_sched(h)]),
    ("conformal", true, |h| {
        vec![conformal_variants::ext_conformal_variants(h)]
    }),
    ("optimizer", true, |h| vec![optimizer_cmp::ext_optimizer(h)]),
    ("baselines", true, |h| vec![baselines_ext::ext_baselines(h)]),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Fast;
    let mut out_dir = PathBuf::from("results");
    let mut commands = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--full" => scale = Scale::Full,
            "--out" => {
                i += 1;
                out_dir = PathBuf::from(args.get(i).expect("--out needs a directory"));
            }
            "--help" | "-h" => {
                println!("usage: pitot-repro [--full] [--out DIR] <fig1|fig4a|...|all>");
                return;
            }
            cmd => commands.push(cmd.to_string()),
        }
        i += 1;
    }
    if commands.is_empty() {
        eprintln!("no command given; try `pitot-repro all` or `--help`");
        std::process::exit(2);
    }
    // Resolve every command before the (slow) harness build, so a typo
    // fails fast and non-zero.
    let mut selected: Vec<&Command> = Vec::new();
    for cmd in &commands {
        if cmd == "all" {
            selected.extend(COMMANDS.iter().filter(|(_, in_all, _)| *in_all));
        } else if let Some(c) = COMMANDS.iter().find(|(name, ..)| name == cmd) {
            selected.push(c);
        } else {
            eprintln!("unknown command `{cmd}`; see --help");
            std::process::exit(2);
        }
    }

    let t0 = Instant::now();
    eprintln!("building harness ({scale:?})…");
    let harness = Harness::new(scale);
    eprintln!(
        "dataset: {} observations over {} workloads × {} platforms ({:.1?})",
        harness.dataset.observations.len(),
        harness.dataset.n_workloads,
        harness.dataset.n_platforms,
        t0.elapsed()
    );
    std::fs::create_dir_all(&out_dir).expect("create output directory");

    for (_, _, run) in selected {
        let t = Instant::now();
        for fig in run(&harness) {
            fig.print();
            let path = out_dir.join(format!("{}.json", fig.id));
            let json = serde_json::to_string_pretty(&fig).expect("serialize figure");
            std::fs::write(&path, json).expect("write figure JSON");
            eprintln!(
                "{} done in {:.1?} → {}",
                fig.id,
                t.elapsed(),
                path.display()
            );
        }
    }
    eprintln!("total: {:.1?}", t0.elapsed());
}
