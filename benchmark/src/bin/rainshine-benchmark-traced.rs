//! Traced benchmark runs (`--trace 1`), with the counting allocator.

#[global_allocator]
static ALLOCATOR: rainshine_benchmark::alloc::Counting = rainshine_benchmark::alloc::Counting;

fn main() -> std::process::ExitCode {
    rainshine_benchmark::cli()
}
