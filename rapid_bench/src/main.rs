fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(rapid_bench_suite::cli::main(&args));
}
