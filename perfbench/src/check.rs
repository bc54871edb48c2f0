//! Answer checks computed apart from the program.
//!
//! Nothing here calls into the solver crates: loads, bounds, LPT and the
//! gap are recomputed from the instance's times, and replies are parsed
//! from the documented `ok …` line format by this file's own parser.

use std::fmt;

/// What the benchmark knows about an instance without asking the program.
#[derive(Clone, Debug)]
pub struct Reference {
    pub times: Vec<u64>,
    pub machines: usize,
    pub total: u64,
    /// max(⌈Σt/m⌉, max t).
    pub lower_bound: u64,
    /// Makespan of the benchmark's own LPT schedule, an upper bound on OPT.
    pub lpt: u64,
}

impl Reference {
    pub fn new(times: &[u64], machines: usize) -> Self {
        let total: u64 = times.iter().sum();
        let max = times.iter().copied().max().unwrap_or(0);
        let m = machines as u64;
        let lower_bound = total.div_ceil(m).max(max);
        let mut sorted = times.to_vec();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let mut loads = vec![0u64; machines];
        for t in sorted {
            let least = (0..machines).min_by_key(|&i| (loads[i], i)).expect("m > 0");
            loads[least] += t;
        }
        let lpt = loads.into_iter().max().unwrap_or(0);
        Self {
            times: times.to_vec(),
            machines,
            total,
            lower_bound,
            lpt,
        }
    }

    /// The largest machine load of `assignment`, or `None` unless it puts
    /// every job on exactly one machine below `m`.
    pub fn makespan_of(&self, assignment: &[usize]) -> Option<u64> {
        if assignment.len() != self.times.len() || assignment.iter().any(|&a| a >= self.machines) {
            return None;
        }
        let mut loads = vec![0u64; self.machines];
        for (&a, &t) in assignment.iter().zip(&self.times) {
            loads[a] += t;
        }
        loads.into_iter().max()
    }

    /// ⌊(makespan − LB)·10⁶/LB⌋, 0 when the makespan meets the bound.
    pub fn gap_ppm(&self, makespan: u64) -> u64 {
        if makespan <= self.lower_bound {
            return 0;
        }
        ((makespan - self.lower_bound) as u128 * 1_000_000 / self.lower_bound as u128) as u64
    }
}

/// An answer as the benchmark reads it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Answer {
    pub makespan: u64,
    /// Converged PTAS target `T*` (PTAS answers only).
    pub target: Option<u64>,
    /// Name of the algorithm that answered (`ptas`, `lptrev`, …).
    pub engine: String,
    pub hits: u64,
    pub misses: u64,
    pub wait_us: u64,
    pub solve_us: u64,
    /// Certificate `makespan ≤ (num/den)·OPT + slack`.
    pub certificate: Option<(u64, u64, u64)>,
    pub gap_ppm: Option<u64>,
    pub assignment: Vec<usize>,
}

impl Answer {
    /// Parses `ok <makespan> <target|-> <engine> <degraded> <hits> <misses>
    /// <wait_us> <solve_us> <num/den/slack> <gap_ppm> <assignment>`.
    pub fn parse(line: &str) -> Result<Answer, String> {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.first() != Some(&"ok") {
            return Err(format!("not an ok reply: {line}"));
        }
        if f.len() != 12 {
            return Err(format!("expected 12 fields, got {}: {line}", f.len()));
        }
        let num = |s: &str| {
            s.parse::<u64>()
                .map_err(|e| format!("bad number `{s}`: {e}"))
        };
        let cert: Vec<&str> = f[9].split('/').collect();
        if cert.len() != 3 {
            return Err(format!("bad certificate `{}`", f[9]));
        }
        Ok(Answer {
            makespan: num(f[1])?,
            target: if f[2] == "-" { None } else { Some(num(f[2])?) },
            engine: f[3].to_string(),
            hits: num(f[5])?,
            misses: num(f[6])?,
            wait_us: num(f[7])?,
            solve_us: num(f[8])?,
            certificate: Some((num(cert[0])?, num(cert[1])?, num(cert[2])?)),
            gap_ppm: Some(num(f[10])?),
            assignment: f[11]
                .split(',')
                .map(|w| {
                    w.parse::<usize>()
                        .map_err(|e| format!("bad machine `{w}`: {e}"))
                })
                .collect::<Result<_, _>>()?,
        })
    }

    /// Whether the answer is a PTAS schedule whose target can be checked.
    fn is_ptas(&self) -> bool {
        self.engine == "ptas" && self.target.is_some()
    }
}

/// One property an answer must have.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rule {
    /// Every job on exactly one machine below `m`.
    Assignment,
    /// Reported makespan equals the recomputed maximum load.
    Makespan,
    /// Makespan ≥ max(⌈Σt/m⌉, max t).
    LowerBound,
    /// PTAS target T* ≤ the benchmark's LPT makespan.
    TargetAboveLpt,
    /// makespan ≤ max(T*(1+1/k), Σt/m + T*/k) for PTAS answers, k = 4.
    Envelope,
    /// The certificate is not contradicted by the benchmark's LPT makespan.
    Certificate,
    /// Reported gap equals the recomputed gap.
    Gap,
    /// A repeated request got a different makespan than its first answer.
    Repeat,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// The PTAS rounding parameter of ε = 0.3.
pub const K: u64 = 4;

/// Every rule `answer` breaks on the instance `r` (empty when it is correct).
/// `first_makespan` is the makespan of an earlier answer to the same request.
pub fn violations(r: &Reference, answer: &Answer, first_makespan: Option<u64>) -> Vec<Rule> {
    let mut bad = Vec::new();
    let m = r.machines;
    match r.makespan_of(&answer.assignment) {
        None => bad.push(Rule::Assignment),
        Some(ms) if ms != answer.makespan => bad.push(Rule::Makespan),
        Some(_) => {}
    }
    let ms = answer.makespan;
    if ms < r.lower_bound {
        bad.push(Rule::LowerBound);
    }
    if let (true, Some(t)) = (answer.is_ptas(), answer.target) {
        if t > r.lpt {
            bad.push(Rule::TargetAboveLpt);
        }
        // ms ≤ max(T(k+1)/k, Σt/m + T/k), scaled by k·m.
        let (k, mu) = (K as u128, m as u128);
        let lhs = k * mu * ms as u128;
        let long = (k + 1) * mu * t as u128;
        let short = k * r.total as u128 + mu * t as u128;
        if lhs > long.max(short) {
            bad.push(Rule::Envelope);
        }
    }
    if let Some((num, den, slack)) = answer.certificate {
        // OPT ≤ LPT, so a claim ms ≤ (num/den)·OPT + slack that fails
        // against LPT fails against OPT too.
        let claimed = ms.saturating_sub(slack) as u128 * den as u128;
        if den == 0 || num < den || claimed > num as u128 * r.lpt as u128 {
            bad.push(Rule::Certificate);
        }
    }
    if answer.gap_ppm.is_some_and(|g| g != r.gap_ppm(ms)) {
        bad.push(Rule::Gap);
    }
    if first_makespan.is_some_and(|first| first != ms) {
        bad.push(Rule::Repeat);
    }
    bad
}

/// Feeds the checks one correct answer and one corruption per rule, and
/// fails unless the correct answer passes and every corruption is caught
/// by the rule it targets. Returns the number of corruptions rejected.
pub fn self_test() -> Result<usize, String> {
    // Six jobs on two machines; LB = ⌈45/2⌉ = 23, LPT = 23.
    let r = Reference::new(&[10, 9, 8, 7, 6, 5], 2);
    assert_eq!((r.lower_bound, r.lpt), (23, 23));
    let good = Answer {
        makespan: 23,
        target: Some(22),
        engine: "ptas".into(),
        hits: 0,
        misses: 0,
        wait_us: 0,
        solve_us: 0,
        certificate: Some((21, 16, 2)),
        gap_ppm: Some(0),
        assignment: vec![0, 1, 1, 0, 1, 0],
    };
    let found = violations(&r, &good, Some(23));
    if !found.is_empty() {
        return Err(format!("a correct answer was rejected: {found:?}"));
    }
    let corrupt = |rule: Rule, f: &dyn Fn(&mut Answer)| {
        let mut a = good.clone();
        f(&mut a);
        (rule, a)
    };
    // Every job on machine 0: loads 45/0, a valid but far-from-optimal schedule.
    let lumped = |a: &mut Answer| {
        a.assignment = vec![0; 6];
        a.makespan = 45;
        a.gap_ppm = Some(r.gap_ppm(45));
    };
    let cases = [
        corrupt(Rule::Assignment, &|a| a.assignment[2] = 2),
        corrupt(Rule::Assignment, &|a| {
            a.assignment.pop();
        }),
        corrupt(Rule::Makespan, &|a| {
            a.makespan = 24;
            a.gap_ppm = Some(r.gap_ppm(24));
        }),
        corrupt(Rule::LowerBound, &|a| a.makespan = 22),
        corrupt(Rule::TargetAboveLpt, &|a| a.target = Some(24)),
        corrupt(Rule::Envelope, &|a| {
            lumped(a);
            a.certificate = Some((2, 1, 0));
        }),
        corrupt(Rule::Certificate, &|a| {
            lumped(a);
            a.target = None;
            a.engine = "lptrev".into();
            a.certificate = Some((1, 1, 0));
        }),
        corrupt(Rule::Certificate, &|a| a.certificate = Some((1, 0, 0))),
        corrupt(Rule::Gap, &|a| a.gap_ppm = Some(1)),
        (Rule::Repeat, good.clone()),
    ];
    for (rule, answer) in &cases {
        let first = (*rule == Rule::Repeat).then_some(24);
        let found = violations(&r, answer, first);
        if !found.contains(rule) {
            return Err(format!(
                "corruption aimed at {rule} passed: {answer:?} gave {found:?}"
            ));
        }
    }
    // The parser rejects a reply with a field missing.
    if Answer::parse("ok 23 22 ptas 0 0 0 0 0 21/16/2 0").is_ok() {
        return Err("a truncated reply parsed".into());
    }
    Ok(cases.len() + 1)
}

#[cfg(test)]
mod tests {
    #[test]
    fn self_test_passes() {
        assert_eq!(super::self_test(), Ok(11));
    }
}
