//! The standalone prediction tool of the paper's artifact appendix —
//! the Rust counterpart of `scaleModel.py`.
//!
//! ```text
//! scale_model_predict [--size N] [--f-mem F] <ipc_small> <ipc_large> <mpki...>
//! ```
//!
//! * `ipc_small`, `ipc_large` — measured IPC of the two scale models
//!   (the larger is assumed twice the size of the smaller);
//! * `mpki...` — the miss-rate curve: one MPKI value per system size,
//!   smallest first, covering the scale models and every target (so with
//!   five values and `--size 8`, targets 32, 64 and 128 are predicted);
//! * `--size N` — SM (or chiplet) count of the smallest scale model
//!   (default 8; the Python tool prompts for this interactively);
//! * `--f-mem F` — the largest scale model's memory-stall fraction,
//!   required only when the curve contains a cliff (the Python tool
//!   prompts for it on demand).
//!
//! Output mirrors the artifact's: (1) the measured scale-model IPCs,
//! (2) predicted IPC for each target, and (3) a text rendering of
//! performance versus system size for all prediction methods.

use gsim_core::{
    detect_cliff, LinearRegression, LogRegression, ModelError, PowerLawRegression, Proportional,
    ScaleModelInputs, ScaleModelPredictor, ScalingPredictor, SizedMrc,
};

struct Args {
    size: u32,
    f_mem: Option<f64>,
    ipc_small: f64,
    ipc_large: f64,
    mpki: Vec<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut size = 8u32;
    let mut f_mem = None;
    let mut values = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--size" => {
                size = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--size takes an integer")?;
            }
            "--f-mem" => {
                f_mem = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--f-mem takes a fraction in [0,1)")?,
                );
            }
            "--help" | "-h" => {
                return Err("usage: scale_model_predict [--size N] [--f-mem F] \
                            <ipc_small> <ipc_large> <mpki...>"
                    .into());
            }
            v => values.push(v.parse::<f64>().map_err(|_| format!("not a number: {v}"))?),
        }
    }
    if values.len() < 3 {
        return Err("need <ipc_small> <ipc_large> and at least one MPKI value".into());
    }
    Ok(Args {
        size,
        f_mem,
        ipc_small: values[0],
        ipc_large: values[1],
        mpki: values[2..].to_vec(),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let s = args.size;
    let l = s * 2;
    let sizes: Vec<u32> = (0..args.mpki.len() as u32).map(|i| s << i).collect();
    let mrc = SizedMrc::new(sizes.iter().copied().zip(args.mpki.iter().copied()));

    println!("(1) measured scale models:");
    println!("    {s:>4} SMs: IPC {:10.2}", args.ipc_small);
    println!("    {l:>4} SMs: IPC {:10.2}", args.ipc_large);

    if let Some(i) = detect_cliff(&mrc) {
        println!(
            "    miss-rate cliff detected between {} and {} SMs",
            mrc.points()[i].0,
            mrc.points()[i + 1].0
        );
    } else {
        println!("    no miss-rate cliff: the whole range is pre-cliff");
    }

    let mut inputs =
        ScaleModelInputs::new(s, args.ipc_small, l, args.ipc_large).with_sized_mrc(mrc);
    if let Some(f) = args.f_mem {
        inputs = inputs.with_f_mem(f);
    }
    let scale_model = ScaleModelPredictor::new(inputs).unwrap_or_else(|e| {
        match e {
            ModelError::MissingFMem => eprintln!(
                "the curve contains a cliff: pass --f-mem <fraction>, the fraction \
                 of cycles the largest scale model could not fetch because all \
                 warps waited on memory"
            ),
            e => eprintln!("invalid inputs: {e}"),
        }
        std::process::exit(2)
    });

    // The artifact's method order. The scale-model predictor validated
    // the observations; the baselines check nothing more.
    let (ipc_s, ipc_l) = (args.ipc_small, args.ipc_large);
    const VALIDATED: &str = "observations validated by the scale-model predictor";
    let models: [Box<dyn ScalingPredictor>; 5] = [
        Box::new(scale_model),
        Box::new(Proportional::fit(s, ipc_s, l, ipc_l).expect(VALIDATED)),
        Box::new(LinearRegression::fit(s, ipc_s, l, ipc_l).expect(VALIDATED)),
        Box::new(PowerLawRegression::fit(s, ipc_s, l, ipc_l).expect(VALIDATED)),
        Box::new(LogRegression::fit(s, ipc_s, l, ipc_l).expect(VALIDATED)),
    ];
    let targets: Vec<u32> = sizes.iter().copied().filter(|&z| z > l).collect();
    // (name, predictions at each target, values for the text graph:
    // scale-model sizes show the measurements, targets the prediction)
    let methods: Vec<(&str, Vec<f64>, Vec<f64>)> = models
        .iter()
        .map(|model| {
            let target_preds = targets
                .iter()
                .map(|&t| model.predict(f64::from(t)))
                .collect();
            let graph = sizes
                .iter()
                .map(|&z| {
                    if z == s {
                        ipc_s
                    } else if z <= l {
                        ipc_l
                    } else {
                        model.predict(f64::from(z))
                    }
                })
                .collect();
            (model.name(), target_preds, graph)
        })
        .collect();

    println!("\n(2) predicted IPC per target system:");
    print!("    {:>13}", "size");
    for &t in &targets {
        print!("  {t:>10}");
    }
    println!();
    for (name, target_preds, _) in &methods {
        print!("    {name:>13}");
        for p in target_preds {
            print!("  {p:>10.2}");
        }
        println!();
    }

    // (3) text graph: IPC vs size, one column per method, bar-scaled.
    println!("\n(3) performance vs system size (each row scaled to its maximum):");
    let max_ipc = methods
        .iter()
        .flat_map(|(_, _, graph)| graph.iter().copied())
        .fold(args.ipc_large, f64::max);
    for (i, &z) in sizes.iter().enumerate() {
        print!("    {z:>4} SMs ");
        for (_, _, graph) in &methods {
            let bars = ((graph[i] / max_ipc) * 20.0).round().max(0.0) as usize;
            print!(" |{:<20}", "#".repeat(bars.min(20)));
        }
        println!();
    }
    print!("             ");
    for (name, _, _) in &methods {
        print!("  {name:<20}");
    }
    println!();
}
