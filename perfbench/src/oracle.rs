//! The answer oracle: every outcome line is checked for internal
//! consistency and recomputed testing time, and a sample is re-solved
//! in process and compared.

use tamopt::partition::{co_optimize, co_optimize_frontier, co_optimize_top_k, PipelineConfig};
use tamopt::service::{RequestKind, WIRE_VERSION};
use tamopt::{design_wrapper, ParallelConfig, TimeTable};

use crate::gen::Spec;
use crate::json::Json;

/// One architecture of an answer: a point result, a top-K rank or a
/// frontier width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    pub width: u32,
    pub soc_time: u64,
    pub tams: Vec<u32>,
}

/// A checked outcome line.
#[derive(Debug, Clone)]
pub struct Checked {
    /// `complete` or, for a cancelled request, `cancelled`.
    pub status: String,
    /// The answers, in wire order (empty for a bare cancellation).
    pub answers: Vec<Answer>,
}

fn field<'a>(json: &'a Json, key: &str) -> Result<&'a Json, String> {
    json.get(key).ok_or_else(|| format!("missing `{key}`"))
}

fn number(json: &Json, key: &str) -> Result<u64, String> {
    field(json, key)?
        .as_u64()
        .ok_or_else(|| format!("`{key}` is not an unsigned integer"))
}

fn numbers(json: &Json, key: &str) -> Result<Vec<u64>, String> {
    field(json, key)?
        .as_u64_vec()
        .ok_or_else(|| format!("`{key}` is not an array of unsigned integers"))
}

fn widths(json: &Json) -> Result<Vec<u32>, String> {
    numbers(json, "tams")?
        .into_iter()
        .map(|w| u32::try_from(w).map_err(|_| "TAM width overflows".to_owned()))
        .collect()
}

/// Checks one outcome line against the request it answers. A
/// cancelled request (`cancelled` true) may also end `cancelled`, with
/// or without a partial result; everything else must be `complete`.
pub fn check(line: &str, spec: &Spec, cancelled: bool) -> Result<Checked, String> {
    let json = Json::parse(line.trim_end())?;
    if let Some(error) = json.get("error") {
        return Err(format!("error reply: {error:?}"));
    }
    if number(&json, "v")? != u64::from(WIRE_VERSION) {
        return Err("unexpected wire version".to_owned());
    }
    let expect = |key: &str, want: String, got: Option<String>| -> Result<(), String> {
        match got {
            Some(got) if got == want => Ok(()),
            got => Err(format!("`{key}` is {got:?}, expected {want:?}")),
        }
    };
    expect(
        "soc",
        spec.soc.name().to_owned(),
        json.get("soc").and_then(Json::as_str).map(str::to_owned),
    )?;
    expect(
        "width",
        spec.width.to_string(),
        json.get("width")
            .and_then(Json::as_u64)
            .map(|w| w.to_string()),
    )?;
    expect(
        "max_tams",
        spec.max_tams.to_string(),
        json.get("max_tams")
            .and_then(Json::as_u64)
            .map(|w| w.to_string()),
    )?;
    expect(
        "kind",
        spec.kind.label(),
        json.get("kind").and_then(Json::as_str).map(str::to_owned),
    )?;
    let status = field(&json, "status")?
        .as_str()
        .ok_or("`status` is not a string")?
        .to_owned();
    match status.as_str() {
        "complete" => {}
        "cancelled" if cancelled => {
            if json.get("soc_time").is_none() {
                return Ok(Checked {
                    status,
                    answers: Vec::new(),
                });
            }
        }
        other => return Err(format!("status `{other}`")),
    }

    // The headline architecture: its TAM widths, one TAM per core, and
    // a testing time recomputed from the wrapper designs.
    let soc_time = number(&json, "soc_time")?;
    let tams = widths(&json)?;
    let assignment = numbers(&json, "assignment")?;
    let total: u32 = tams.iter().sum();
    let sweep = spec.widths();
    if !sweep.contains(&total) {
        return Err(format!("TAM widths sum to {total}, not a requested width"));
    }
    if tams.is_empty() || tams.len() > spec.max_tams as usize || tams.contains(&0) {
        return Err(format!("{} TAMs for at most {}", tams.len(), spec.max_tams));
    }
    if assignment.len() != spec.soc.num_cores() {
        return Err(format!(
            "{} assignment entries for {} cores",
            assignment.len(),
            spec.soc.num_cores()
        ));
    }
    let mut loads = vec![0u64; tams.len()];
    for (core, &tam) in spec.soc.cores().iter().zip(&assignment) {
        let tam = usize::try_from(tam)
            .ok()
            .filter(|&t| t < tams.len())
            .ok_or_else(|| format!("assignment names TAM {tam} of {}", tams.len()))?;
        // TimeTable fills each cell T_c(w) with exactly this design.
        let design = design_wrapper(core, tams[tam]).map_err(|e| e.to_string())?;
        loads[tam] += design.test_time();
    }
    let recomputed = loads.iter().copied().max().unwrap_or(0);
    if recomputed != soc_time {
        return Err(format!(
            "soc_time {soc_time} but the assignment takes {recomputed}"
        ));
    }
    if number(&json, "heuristic_time")? < soc_time {
        return Err("heuristic_time below soc_time".to_owned());
    }
    let stats = field(&json, "stats")?;
    let (enumerated, completed, aborted) = (
        number(stats, "enumerated")?,
        number(stats, "completed")?,
        number(stats, "aborted")?,
    );
    if enumerated != completed + aborted {
        return Err("stats: enumerated != completed + aborted".to_owned());
    }
    let headline = Answer {
        width: total,
        soc_time,
        tams,
    };

    let answers = match spec.kind {
        RequestKind::Point => vec![headline],
        RequestKind::TopK { k } => {
            let answers = entries(&json)?;
            if answers.is_empty() || answers.len() > k {
                return Err(format!("{} ranked entries for top-{k}", answers.len()));
            }
            if answers.iter().any(|a| a.width != spec.width) {
                return Err("ranked entry at another width".to_owned());
            }
            if answers.windows(2).any(|w| w[0].soc_time > w[1].soc_time) {
                return Err("ranked entries out of order".to_owned());
            }
            if answers[0] != headline {
                return Err("headline differs from rank 1".to_owned());
            }
            answers
        }
        RequestKind::Frontier { .. } => {
            let answers = entries(&json)?;
            let got: Vec<u32> = answers.iter().map(|a| a.width).collect();
            if status == "complete" && got != sweep {
                return Err(format!("frontier widths {got:?}, expected {sweep:?}"));
            }
            let best = answers.iter().map(|a| a.soc_time).min();
            if !answers.contains(&headline) || best != Some(headline.soc_time) {
                return Err("headline is not the frontier's best point".to_owned());
            }
            answers
        }
    };
    Ok(Checked { status, answers })
}

/// The `results` array of a top-K or frontier outcome.
fn entries(json: &Json) -> Result<Vec<Answer>, String> {
    let results = field(json, "results")?
        .as_array()
        .ok_or("`results` is not an array")?;
    results
        .iter()
        .enumerate()
        .map(|(i, entry)| {
            if number(entry, "rank")? != i as u64 + 1 {
                return Err("results out of rank order".to_owned());
            }
            let width = u32::try_from(number(entry, "width")?).map_err(|e| e.to_string())?;
            let tams = widths(entry)?;
            if tams.iter().sum::<u32>() != width {
                return Err(format!("entry TAM widths do not sum to {width}"));
            }
            if number(entry, "num_tams")? != tams.len() as u64 {
                return Err("num_tams disagrees with tams".to_owned());
            }
            Ok(Answer {
                width,
                soc_time: number(entry, "soc_time")?,
                tams,
            })
        })
        .collect()
}

/// Re-solves `spec` in process with the library's public pipeline.
pub fn reference(spec: &Spec) -> Result<Vec<Answer>, String> {
    let table = TimeTable::new(&spec.soc, spec.width).map_err(|e| e.to_string())?;
    let config = PipelineConfig::up_to_tams(spec.max_tams);
    let answer = |width: u32, co: &tamopt::partition::CoOptimization| Answer {
        width,
        soc_time: co.soc_time(),
        tams: co.tams.widths().to_vec(),
    };
    let answers = match spec.kind {
        RequestKind::Point => {
            let co = co_optimize(&table, spec.width, &config).map_err(|e| e.to_string())?;
            vec![answer(spec.width, &co)]
        }
        RequestKind::TopK { k } => co_optimize_top_k(&table, spec.width, &config, k)
            .map_err(|e| e.to_string())?
            .entries
            .iter()
            .map(|co| answer(spec.width, co))
            .collect(),
        RequestKind::Frontier { .. } => co_optimize_frontier(
            &table,
            &spec.widths(),
            &config,
            &ParallelConfig::with_threads(1),
        )
        .map_err(|e| e.to_string())?
        .points
        .iter()
        .map(|(width, co)| answer(*width, co))
        .collect(),
    };
    Ok(answers)
}

/// Compares a checked answer with the in-process reference.
pub fn agrees(checked: &Checked, reference: &[Answer]) -> Result<(), String> {
    if checked.answers == reference {
        Ok(())
    } else {
        Err(format!(
            "daemon answered {:?}, in-process solve gives {:?}",
            checked.answers, reference
        ))
    }
}

/// Checks a `stats` reply addressed to `client`.
pub fn check_stats(line: &str, client: u64) -> Result<(), String> {
    let json = Json::parse(line.trim_end())?;
    if number(&json, "client")? != client {
        return Err("stats reply for another client".to_owned());
    }
    let stats = field(&json, "stats")?;
    field(stats, "clients")?
        .as_array()
        .ok_or("`stats.clients` is not an array")?;
    numbers(stats, "mine")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use tamopt::benchmarks;
    use tamopt::service::{LiveConfig, LiveQueue, Request, Trace};

    use super::*;

    fn spec(kind: RequestKind) -> Spec {
        Spec {
            soc: Arc::new(benchmarks::d695()),
            soc_ref: "d695".to_owned(),
            width: 24,
            max_tams: 4,
            kind,
        }
    }

    /// The daemon's own rendering of `spec`'s outcome.
    fn outcome_line(spec: &Spec) -> String {
        let request = Request::new((*spec.soc).clone(), spec.width)
            .unwrap()
            .max_tams(spec.max_tams)
            .kind(spec.kind);
        let (outcomes, _) =
            LiveQueue::replay(Trace::new().submit_at(0, request), LiveConfig::default());
        outcomes[0].to_json_line()
    }

    #[test]
    fn accepts_true_answers_and_they_match_the_reference() {
        for kind in [
            RequestKind::Point,
            RequestKind::TopK { k: 3 },
            RequestKind::Frontier {
                min_width: 8,
                max_width: 24,
                step: 4,
            },
        ] {
            let spec = spec(kind);
            let checked = check(&outcome_line(&spec), &spec, false).unwrap();
            agrees(&checked, &reference(&spec).unwrap()).unwrap();
        }
    }

    #[test]
    fn rejects_a_mutated_soc_time() {
        let spec = spec(RequestKind::Point);
        let line = outcome_line(&spec);
        let time = check(&line, &spec, false).unwrap().answers[0].soc_time;
        let mutated = line.replacen(
            &format!("\"soc_time\": {time}"),
            &format!("\"soc_time\": {}", time + 1),
            1,
        );
        assert_ne!(mutated, line);
        let err = check(&mutated, &spec, false).unwrap_err();
        assert!(err.contains("soc_time"), "{err}");
    }

    #[test]
    fn rejects_a_mutated_assignment() {
        let spec = spec(RequestKind::Point);
        let line = outcome_line(&spec);
        let json = Json::parse(line.trim_end()).unwrap();
        let assignment = json.get("assignment").and_then(Json::as_u64_vec).unwrap();
        let tams = json.get("tams").and_then(Json::as_u64_vec).unwrap();
        let render = |a: &[u64]| {
            let items: Vec<String> = a.iter().map(u64::to_string).collect();
            format!("\"assignment\": [{}]", items.join(", "))
        };
        // Pile every core onto one TAM (equal-width TAMs make a mere
        // relabelling valid), then a core out of range, then one short.
        let piled = vec![0; assignment.len()];
        let mut outside = assignment.clone();
        outside[0] = tams.len() as u64;
        for mutated in [piled, outside, assignment[1..].to_vec()] {
            let bad = line.replacen(&render(&assignment), &render(&mutated), 1);
            assert_ne!(bad, line);
            assert!(check(&bad, &spec, false).is_err(), "{bad}");
        }
    }

    #[test]
    fn rejects_error_lines_and_wrong_requests() {
        let spec = spec(RequestKind::Point);
        let error = "{\"v\": 1, \"client\": 0, \"error\": \"parse\", \"detail\": \"x\"}";
        assert!(check(error, &spec, false).is_err());
        let line = outcome_line(&spec);
        let other = Spec {
            width: 32,
            ..spec.clone()
        };
        assert!(check(&line, &other, false).is_err());
        let cancelled = line.replacen("\"status\": \"complete\"", "\"status\": \"cancelled\"", 1);
        assert!(check(&cancelled, &spec, false).is_err());
        assert!(check(&cancelled, &spec, true).is_ok());
    }

    #[test]
    fn checks_stats_replies() {
        let line = "{\"v\": 1, \"client\": 1, \"stats\": {\"clients\": [{\"client\": 0, \"outstanding\": 0}], \"mine\": [2]}}";
        check_stats(line, 1).unwrap();
        assert!(check_stats(line, 0).is_err());
    }
}
