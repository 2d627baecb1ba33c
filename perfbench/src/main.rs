//! Command-line entry point; see `perfbench/run.sh` for how it is invoked.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let bench = match perfbench::Bench::from_args(&args) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match perfbench::execute(&bench) {
        Ok(out) => {
            for line in &out.summary {
                println!("{line}");
            }
            println!("{}", out.line);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
