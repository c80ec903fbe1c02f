#include "answers.hpp"

#include <algorithm>
#include <sstream>

#include "batch/corpus_tasks.hpp"
#include "corpus/cara.hpp"
#include "corpus/robot.hpp"
#include "corpus/telepromise.hpp"
#include "difftest/harness.hpp"
#include "ltl/formula.hpp"

namespace specbench {

using namespace speccc;

Verdict verdict_of(const core::PipelineResult& result) {
  Verdict v;
  v.consistent = result.consistent;
  v.formulas = result.num_formulas();
  v.inputs = result.num_inputs();
  v.outputs = result.num_outputs();
  v.unsatisfiable = result.unsatisfiable_requirements;
  const auto& reqs = result.translation.requirements;
  if (result.refinement.has_value()) {
    for (std::size_t i : result.refinement->localization.core) {
      v.mus.push_back(reqs.at(i).id);
    }
  }
  for (const auto& r : reqs) {
    v.formula_text.emplace_back(r.id, ltl::to_string(r.formula));
  }
  return v;
}

Verdict verdict_of(const batch::TaskResult& result) {
  Verdict v;
  switch (result.status) {
    case batch::TaskStatus::kConsistent:
      v.consistent = true;
      break;
    case batch::TaskStatus::kInconsistent:
      break;
    default:
      v.error = std::string(batch::status_name(result.status)) + ": " +
                result.detail;
      break;
  }
  v.formulas = result.formulas;
  v.inputs = result.inputs;
  v.outputs = result.outputs;
  v.unsatisfiable = result.unsatisfiable_requirements;
  v.mus = result.mus;
  return v;
}

namespace {

std::vector<std::string> sorted(std::vector<std::string> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::string join(const std::vector<std::string>& ids) {
  std::string out;
  for (const auto& id : ids) out += (out.empty() ? "" : ",") + id;
  return "{" + out + "}";
}

}  // namespace

std::string mismatch(const Expected& expected, const Verdict& verdict) {
  if (!verdict.error.empty()) return "no verdict (" + verdict.error + ")";
  std::ostringstream why;
  if (verdict.consistent != expected.consistent) {
    why << "verdict " << (verdict.consistent ? "consistent" : "inconsistent")
        << ", expected the opposite; ";
  }
  if (verdict.formulas != expected.formulas) {
    why << verdict.formulas << " formulas, expected " << expected.formulas
        << "; ";
  }
  if (expected.inputs.has_value()) {
    const std::size_t lo = *expected.inputs - std::min(*expected.inputs,
                                                       expected.inputs_slack);
    const std::size_t hi = *expected.inputs + expected.inputs_slack;
    if (verdict.inputs < lo || verdict.inputs > hi) {
      why << verdict.inputs << " inputs, expected " << *expected.inputs
          << "; ";
    }
  }
  if (expected.outputs.has_value() && verdict.outputs != *expected.outputs) {
    why << verdict.outputs << " outputs, expected " << *expected.outputs
        << "; ";
  }
  for (const auto& [id, text] : expected.formulas_by_id) {
    const auto it = std::find_if(
        verdict.formula_text.begin(), verdict.formula_text.end(),
        [&id](const auto& entry) { return entry.first == id; });
    if (it == verdict.formula_text.end() || it->second != text) {
      why << id << " does not translate to the published formula; ";
    }
  }
  if (!expected.faults.empty()) {
    const auto mus = sorted(verdict.mus);
    const bool planted = std::any_of(
        expected.faults.begin(), expected.faults.end(),
        [&mus](const auto& fault) { return sorted(fault) == mus; });
    if (!planted) why << "core " << join(mus) << " is no planted fault; ";
  }
  return why.str();
}

std::string replica_mismatch(const Verdict& canonical, const Verdict& replica) {
  if (canonical.consistent != replica.consistent) return "verdict differs";
  if (canonical.formulas != replica.formulas) return "formula count differs";
  if (canonical.inputs != replica.inputs ||
      canonical.outputs != replica.outputs) {
    return "partition sizes differ";
  }
  if (canonical.unsatisfiable != replica.unsatisfiable) {
    return "unsatisfiable requirements differ";
  }
  if (canonical.mus != replica.mus) return "localized core differs";
  return "";
}

std::string self_test(const Case& c, const Verdict& verdict) {
  if (!mismatch(c.expected, verdict).empty()) return "";  // already failing
  std::vector<std::pair<std::string, Expected>> corrupted;
  Expected e = c.expected;
  e.consistent = !e.consistent;
  corrupted.emplace_back("flipped verdict", e);
  e = c.expected;
  e.formulas += 1;
  corrupted.emplace_back("formula count", e);
  if (c.expected.inputs.has_value()) {
    e = c.expected;
    e.inputs = *e.inputs + 2 * e.inputs_slack + 1;
    corrupted.emplace_back("input count", e);
  }
  if (c.expected.outputs.has_value()) {
    e = c.expected;
    e.outputs = *e.outputs + 1;
    corrupted.emplace_back("output count", e);
  }
  if (!c.expected.formulas_by_id.empty()) {
    e = c.expected;
    e.formulas_by_id.front().second += " & p";
    corrupted.emplace_back("published formula", e);
  }
  if (!c.expected.faults.empty()) {
    e = c.expected;
    for (auto& fault : e.faults) fault.push_back("not-a-requirement");
    corrupted.emplace_back("planted fault", e);
  }
  for (const auto& [what, bad] : corrupted) {
    if (mismatch(bad, verdict).empty()) return what + " of " + c.task.name;
  }
  return "";
}

std::vector<Case> table1_cases() {
  // batch::table1_tasks() is the product's own packaging of the corpora;
  // the published counts come from the corpus tables, row for row in the
  // same order (CARA/0, the 13 CARA components, TELE, Robot).
  const std::vector<batch::SpecTask> tasks = batch::table1_tasks();
  std::vector<Expected> published;
  Expected row0;
  row0.formulas = corpus::cara_working_mode().size();
  row0.inputs = 22;
  row0.inputs_slack = 1;
  for (const auto& golden : corpus::cara_working_mode()) {
    if (!golden.expected.empty()) {
      row0.formulas_by_id.emplace_back(golden.id, golden.expected);
    }
  }
  published.push_back(row0);
  const auto add = [&published](int formulas, int inputs, int outputs) {
    Expected e;
    e.formulas = static_cast<std::size_t>(formulas);
    e.inputs = static_cast<std::size_t>(inputs);
    e.outputs = static_cast<std::size_t>(outputs);
    published.push_back(e);
  };
  for (const auto& s : corpus::cara_component_specs()) {
    add(s.table_formulas, s.table_inputs, s.table_outputs);
  }
  for (const auto& s : corpus::telepromise_specs()) {
    add(s.table_formulas, s.table_inputs, s.table_outputs);
  }
  for (const auto& s : corpus::robot_specs()) {
    add(s.table_formulas, s.table_inputs, s.table_outputs);
  }
  std::vector<Case> cases;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    cases.push_back({tasks[i], published.at(i)});
  }
  return cases;
}

Case planted_case(std::uint64_t seed, int index) {
  difftest::FaultConfig config;
  // No "in N seconds" sentences: with the generator's default share, most
  // of a planted spec's time goes to depth-12 satisfiability screens, which
  // buries the refinement stage this workload is meant to carry.
  config.base.timed_percent = 0;
  difftest::PlantedSpec spec =
      difftest::generated_planted_spec(seed, index, config);
  Case c;
  c.expected.consistent = false;
  c.expected.formulas = spec.requirements.size();
  for (const auto& fault : spec.faults) {
    std::vector<std::string> ids;
    for (std::size_t i : fault) ids.push_back(spec.requirements.at(i).id);
    c.expected.faults.push_back(std::move(ids));
  }
  c.task = {std::move(spec.name), std::move(spec.requirements)};
  return c;
}

Case generated_case(std::uint64_t seed, int index,
                    const difftest::SpecConfig& config) {
  difftest::GeneratedSpec spec = difftest::generated_spec(seed, index, config);
  Case c;
  c.expected.formulas = spec.requirements.size();
  c.task = {std::move(spec.name), std::move(spec.requirements)};
  return c;
}

Case revision_of(const Case& base, std::size_t drop) {
  Case c = base;
  c.task.name += "-r" + std::to_string(drop);
  c.task.requirements.erase(c.task.requirements.begin() +
                            static_cast<std::ptrdiff_t>(drop));
  c.expected.formulas = c.task.requirements.size();
  return c;
}

}  // namespace specbench
