//! Inspect a handler the way the compiler sees it: Unit Graph, stop
//! nodes, target paths, Potential Split Edges under both cost models, and
//! the generated modulator/demodulator "classes".
//!
//! ```sh
//! cargo run --example inspect_handler            # built-in demo handler
//! cargo run --example inspect_handler -- my.jmpl my_fn
//! ```

use std::sync::Arc;

use method_partitioning::core::codegen::{demodulator_text, generated_sizes, modulator_text};
use method_partitioning::core::partitioned::PartitionedHandler;
use method_partitioning::cost::{CostModel, DataSizeModel, ExecTimeModel};
use method_partitioning::ir::parse::parse_program;

const DEMO: &str = r#"
class ImageData { width: int, height: int, buff: ref }

fn push(event) {
    z0 = event instanceof ImageData
    if z0 == 0 goto skip
    img = (ImageData) event
    out = call resize(img, 100, 100)
    native display_image(out)
    return 1
skip:
    return 0
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let (source, func_name) = match args.as_slice() {
        [_, path, func] => (std::fs::read_to_string(path)?, func.clone()),
        _ => (DEMO.to_string(), "push".to_string()),
    };
    let program = Arc::new(parse_program(&source)?);

    println!("=== program (pretty-printed back from the IR) ===");
    print!("{program}");

    for model in [
        Arc::new(DataSizeModel::new()) as Arc<dyn CostModel>,
        Arc::new(ExecTimeModel::new()) as Arc<dyn CostModel>,
    ] {
        let handler =
            PartitionedHandler::analyze(Arc::clone(&program), &func_name, Arc::clone(&model))?;
        let analysis = handler.analysis();
        println!("\n=== analysis under the `{}` cost model ===", model.name());
        println!(
            "{} instructions, {} stop nodes, {} target paths",
            analysis.ug.len(),
            analysis.stops.len(),
            analysis.dag().path_count(),
        );
        println!("potential split edges:");
        let func = handler.func();
        for (i, pse) in analysis.pses().iter().enumerate() {
            let vars: Vec<&str> = pse.inter.iter().map(|v| func.var_name(*v)).collect();
            println!(
                "  PSE {i}: {} ships {{{}}}  static cost {:?}",
                pse.edge,
                vars.join(", "),
                pse.static_cost
            );
        }
        println!("initial plan: {:?}", handler.plan().active());
        let sizes = generated_sizes(&handler);
        println!(
            "generated pair: modulator {} B, demodulator {} B, \
             {} redirect classes totalling {} B",
            sizes.modulator_bytes,
            sizes.demodulator_bytes,
            sizes.pses,
            sizes.redirect_classes_bytes
        );
    }

    let handler = PartitionedHandler::analyze(
        Arc::clone(&program),
        &func_name,
        Arc::new(DataSizeModel::new()),
    )?;
    println!("\n=== generated modulator ===");
    print!("{}", modulator_text(&handler));
    println!("\n=== generated demodulator ===");
    print!("{}", demodulator_text(&handler));
    Ok(())
}
