//! `dosn-bench`: see the library docs for the command line.

fn main() -> std::process::ExitCode {
    dosn_bench::main(std::env::args().skip(1))
}
