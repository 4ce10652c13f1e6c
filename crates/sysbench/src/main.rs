//! The `sysbench` binary; see `stonne_sysbench::cli`.

/// Stack of the thread everything runs on.
const STACK_BYTES: usize = 64 << 20;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Not on the main thread: its stack base is randomised in 16-byte
    // steps and shifted by the size of the environment, and the layer
    // replay arithmetic is sensitive to where its frames fall (measured:
    // `model_diskwarm` passes took 2.85 s or 3.6 s from one process to
    // the next, one mode per process). A spawned thread's stack is
    // page-aligned, which leaves one mode and a steady measurement.
    let code = std::thread::Builder::new()
        .name("sysbench".to_owned())
        .stack_size(STACK_BYTES)
        .spawn(move || stonne_sysbench::cli::main(&args))
        .expect("the harness thread starts")
        .join()
        .unwrap_or(101);
    std::process::exit(code);
}
