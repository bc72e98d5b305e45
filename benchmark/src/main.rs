//! Untraced benchmark runs (`--trace 0`), on the system allocator.

fn main() -> std::process::ExitCode {
    rainshine_benchmark::cli()
}
