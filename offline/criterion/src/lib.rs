//! Offline stand-in for `criterion` 0.5: the names this repository's
//! benches use, with the published crate's signatures. Each routine is run
//! `sample_size` times after one warm-up call and the mean wall time is
//! printed; there is no statistical analysis, no report directory and no
//! comparison with an earlier run.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// How `iter_batched` groups set-up calls; every variant runs one set-up per
/// routine call here.
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
}

/// Work done by one routine call, for a rate next to the time.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    Bytes(u64),
    Elements(u64),
}

/// Entry point handed to every benchmark function.
#[derive(Debug, Default)]
pub struct Criterion;

impl Criterion {
    /// A group of benchmarks reported under `name/`.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _criterion: self,
            name: name.into(),
            sample_size: 100,
            throughput: None,
        }
    }

    /// One benchmark outside any group.
    pub fn bench_function(
        &mut self,
        id: impl Into<String>,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        run_one(&id.into(), 100, None, f);
        self
    }
}

/// See [`Criterion::benchmark_group`].
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Routine calls timed per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n >= 10, "sample size must be at least 10");
        self.sample_size = n;
        self
    }

    /// Work one routine call does, for the benchmarks that follow.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Time `f` and print the result as `group/id`.
    pub fn bench_function(
        &mut self,
        id: impl Into<String>,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let id = format!("{}/{}", self.name, id.into());
        run_one(&id, self.sample_size, self.throughput, f);
        self
    }

    /// End the group.
    pub fn finish(self) {}
}

fn run_one(
    id: &str,
    samples: usize,
    throughput: Option<Throughput>,
    mut f: impl FnMut(&mut Bencher),
) {
    let mut bencher = Bencher {
        samples,
        elapsed: Duration::ZERO,
    };
    f(&mut bencher);
    let mean = bencher.elapsed.as_secs_f64() / samples as f64;
    let rate = match throughput {
        Some(Throughput::Bytes(n)) => format!("  {:.3e} B/s", n as f64 / mean),
        Some(Throughput::Elements(n)) => format!("  {:.3e} elem/s", n as f64 / mean),
        None => String::new(),
    };
    println!("{id:<60} mean {:>12.3} us over {samples} calls{rate}", mean * 1e6);
}

/// Times a routine; handed to the closure given to `bench_function`.
#[derive(Debug)]
pub struct Bencher {
    samples: usize,
    elapsed: Duration,
}

impl Bencher {
    /// Time `routine` alone.
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        self.iter_batched(|| (), |()| routine(), BatchSize::PerIteration);
    }

    /// Time `routine` on a fresh `setup()` value per call; set-up time and
    /// the time to drop the output are left out.
    pub fn iter_batched<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
        _size: BatchSize,
    ) {
        black_box(routine(setup()));
        for _ in 0..self.samples {
            let input = setup();
            let start = Instant::now();
            let output = routine(black_box(input));
            self.elapsed += start.elapsed();
            black_box(output);
        }
    }
}

/// Define `fn $name()` running each target with a default [`Criterion`].
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Define `main` running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn target(c: &mut Criterion) {
        let mut g = c.benchmark_group("group");
        g.sample_size(10).throughput(Throughput::Elements(4));
        let mut setups = 0;
        let mut calls = 0;
        g.bench_function(format!("id-{}", 1), |b| {
            b.iter_batched(
                || setups += 1,
                |()| calls += 1,
                BatchSize::PerIteration,
            )
        });
        g.finish();
        // Ten samples and one warm-up call, each with its own set-up.
        assert_eq!((setups, calls), (11, 11));
    }

    criterion_group!(benches, target);

    #[test]
    fn group_runs_every_target() {
        benches();
    }
}
