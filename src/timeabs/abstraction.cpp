#include "timeabs/abstraction.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "smt/bitblast.hpp"

namespace speccc::timeabs {

namespace {

void validate(const Request& request) {
  if (request.thetas.empty()) {
    throw util::InvalidInputError("time abstraction requires at least one theta");
  }
  for (std::uint32_t theta : request.thetas) {
    if (theta == 0) {
      throw util::InvalidInputError("Next-chain lengths must be >= 1");
    }
  }
  if (!request.signs.empty() && request.signs.size() != request.thetas.size()) {
    throw util::InvalidInputError("signs must be empty or match thetas in size");
  }
}

ErrorSign sign_of(const Request& request, std::size_t i) {
  return request.signs.empty() ? ErrorSign::kEarly : request.signs[i];
}

/// The unique decomposition of theta for divisor d with Delta >= 0:
/// theta' = floor(theta/d), delta = theta mod d.
struct Option {
  std::uint32_t reduced;
  std::uint32_t abs_error;
  bool early;
};

Option early_option(std::uint32_t theta, std::uint32_t d) {
  return {theta / d, theta % d, true};
}

/// Decomposition with Delta <= 0: theta' = ceil(theta/d), delta = theta'*d -
/// theta; only valid when delta < d (always true unless theta % d == 0, in
/// which case it degenerates to the exact decomposition).
Option late_option(std::uint32_t theta, std::uint32_t d) {
  // In 64 bits: theta + d - 1 wraps 32 bits for theta near UINT32_MAX.
  const std::uint64_t q = (std::uint64_t{theta} + d - 1) / d;
  return {static_cast<std::uint32_t>(q),
          static_cast<std::uint32_t>(q * d - theta), false};
}

}  // namespace

Abstraction gcd_abstraction(const std::vector<std::uint32_t>& thetas) {
  if (thetas.empty()) {
    throw util::InvalidInputError("time abstraction requires at least one theta");
  }
  std::uint32_t g = 0;
  for (std::uint32_t theta : thetas) {
    if (theta == 0) {
      throw util::InvalidInputError("Next-chain lengths must be >= 1");
    }
    g = std::gcd(g, theta);
  }
  Abstraction out;
  out.divisor = g;
  out.errors.assign(thetas.size(), 0);
  out.error_sum = 0;
  for (std::uint32_t theta : thetas) {
    out.reduced.push_back(theta / g);
    out.reduced_sum += theta / g;
  }
  return out;
}

namespace {

/// For a fixed divisor, pick per-theta options to lexicographically minimize
/// (sum theta', sum delta) subject to sum delta <= budget. With fixed signs
/// the options are forced; with kEither this is a tiny knapsack solved by
/// dynamic programming over the budget.
std::optional<Abstraction> solve_for_divisor(const Request& request,
                                             std::uint32_t d) {
  const std::size_t n = request.thetas.size();
  const std::uint64_t budget = request.error_budget;

  // Collect per-theta candidate options.
  std::vector<std::vector<Option>> options(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t theta = request.thetas[i];
    const ErrorSign sign = sign_of(request, i);
    if (sign == ErrorSign::kEarly || sign == ErrorSign::kEither) {
      options[i].push_back(early_option(theta, d));
    }
    if (sign == ErrorSign::kLate || sign == ErrorSign::kEither) {
      const Option late = late_option(theta, d);
      // Skip the duplicate when theta divides exactly.
      if (options[i].empty() || late.abs_error != options[i].front().abs_error ||
          late.reduced != options[i].front().reduced) {
        options[i].push_back(late);
      }
    }
  }

  // DP over budget: best[b] = lexicographically minimal (sum theta',
  // sum delta, choice trace) using error budget exactly <= b.
  constexpr std::uint64_t kInf = std::numeric_limits<std::uint64_t>::max();
  struct Cell {
    std::uint64_t reduced_sum = kInf;
    std::uint64_t error_sum = kInf;
    std::vector<std::uint8_t> choice;
  };
  std::vector<Cell> best(static_cast<std::size_t>(budget) + 1);
  best[0] = {0, 0, {}};

  for (std::size_t i = 0; i < n; ++i) {
    std::vector<Cell> next(budget + 1);
    for (std::size_t b = 0; b <= budget; ++b) {
      const Cell& cur = best[b];
      if (cur.reduced_sum == kInf) continue;
      for (std::size_t k = 0; k < options[i].size(); ++k) {
        const Option& opt = options[i][k];
        const std::uint64_t nb = b + opt.abs_error;
        if (nb > budget) continue;
        Cell cand;
        cand.reduced_sum = cur.reduced_sum + opt.reduced;
        cand.error_sum = cur.error_sum + opt.abs_error;
        Cell& slot = next[nb];
        const bool better =
            slot.reduced_sum == kInf || cand.reduced_sum < slot.reduced_sum ||
            (cand.reduced_sum == slot.reduced_sum &&
             cand.error_sum < slot.error_sum);
        if (better) {
          cand.choice = cur.choice;
          cand.choice.push_back(static_cast<std::uint8_t>(k));
          slot = std::move(cand);
        }
      }
    }
    best = std::move(next);
  }

  // Pick the best cell across budgets.
  const Cell* winner = nullptr;
  for (std::size_t b = 0; b <= budget; ++b) {
    const Cell& cell = best[b];
    if (cell.reduced_sum == kInf) continue;
    const bool better =
        winner == nullptr || cell.reduced_sum < winner->reduced_sum ||
        (cell.reduced_sum == winner->reduced_sum &&
         cell.error_sum < winner->error_sum);
    if (better) winner = &cell;
  }
  if (winner == nullptr) return std::nullopt;

  Abstraction out;
  out.divisor = d;
  out.reduced_sum = winner->reduced_sum;
  out.error_sum = winner->error_sum;
  for (std::size_t i = 0; i < n; ++i) {
    const Option& opt = options[i][winner->choice[i]];
    out.reduced.push_back(opt.reduced);
    out.errors.push_back(opt.early ? static_cast<std::int64_t>(opt.abs_error)
                                   : -static_cast<std::int64_t>(opt.abs_error));
  }
  return out;
}

std::optional<Abstraction> optimize_enumeration(const Request& request) {
  const std::uint32_t max_theta =
      *std::max_element(request.thetas.begin(), request.thetas.end());
  std::optional<Abstraction> best;
  // d beyond max_theta only increases errors (every theta collapses to
  // theta'=0 already at d = max_theta+1 if the budget allows; larger d
  // changes nothing), so the scan is bounded by max_theta + 1, in 64 bits
  // so it cannot wrap; a divisor must still fit Abstraction::divisor.
  const std::uint64_t last = std::min<std::uint64_t>(
      std::uint64_t{max_theta} + 1, std::numeric_limits<std::uint32_t>::max());
  for (std::uint64_t d = 1; d <= last; ++d) {
    auto candidate = solve_for_divisor(request, static_cast<std::uint32_t>(d));
    if (!candidate) continue;
    const bool better =
        !best || candidate->reduced_sum < best->reduced_sum ||
        (candidate->reduced_sum == best->reduced_sum &&
         candidate->error_sum < best->error_sum);
    if (better) best = std::move(candidate);
  }
  return best;
}

std::size_t bit_width(std::uint64_t value) {
  std::size_t w = 1;
  while ((value >> w) != 0) ++w;
  return w;
}

std::optional<Abstraction> optimize_smt(const Request& request,
                                        SmtEncoder encoder) {
  const std::size_t n = request.thetas.size();
  const std::uint32_t max_theta =
      *std::max_element(request.thetas.begin(), request.thetas.end());
  const std::size_t w = bit_width(max_theta) + 1;

  sat::Solver solver;
  smt::BuilderOptions builder_options;
  builder_options.cnf.encoder = encoder == SmtEncoder::kTseitin
                                    ? aig::CnfOptions::Encoder::kTseitin
                                    : aig::CnfOptions::Encoder::kCutMap;
  smt::Builder builder(solver, builder_options);

  const smt::BitVec d = builder.var(w);
  builder.require(builder.ule(builder.constant(1, w), d));

  std::vector<smt::BitVec> reduced;
  std::vector<smt::BitVec> deltas;
  std::vector<smt::Bit> early_sel;  // only meaningful for kEither

  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t theta = request.thetas[i];
    const smt::BitVec theta_c = builder.constant(theta, w);
    const smt::BitVec ri = builder.var(w);
    const smt::BitVec di = builder.var(w);
    builder.require(builder.ult(di, d));  // |Delta| < d
    const smt::BitVec prod = builder.mul(ri, d);

    const smt::Bit early_eq = builder.eq(theta_c, builder.add(prod, di));
    const smt::Bit late_eq = builder.eq(builder.add(theta_c, di), prod);

    const ErrorSign sign = sign_of(request, i);
    smt::Bit sel = smt::Builder::bit_true();
    switch (sign) {
      case ErrorSign::kEarly:
        builder.require(early_eq);
        break;
      case ErrorSign::kLate:
        builder.require(late_eq);
        break;
      case ErrorSign::kEither:
        sel = builder.fresh();
        builder.require(builder.lor(builder.land(sel, early_eq),
                                    builder.land(sel.negated(), late_eq)));
        break;
    }
    early_sel.push_back(sel);
    reduced.push_back(ri);
    deltas.push_back(di);
  }

  // sum |Delta_i| <= B.
  smt::BitVec error_sum = builder.constant(0, 1);
  for (const auto& di : deltas) error_sum = builder.add(error_sum, di);
  builder.require(builder.ule_const(error_sum, request.error_budget));

  smt::BitVec reduced_sum = builder.constant(0, 1);
  for (const auto& ri : reduced) reduced_sum = builder.add(reduced_sum, ri);

  // Primary objective.
  const auto min_reduced = builder.minimize(reduced_sum);
  if (!min_reduced) return std::nullopt;
  builder.require(
      builder.eq(reduced_sum, builder.constant(*min_reduced, reduced_sum.width())));

  // Secondary objective.
  const auto min_error = builder.minimize(error_sum);
  speccc_check(min_error.has_value(), "secondary objective must stay feasible");
  builder.require(
      builder.eq(error_sum, builder.constant(*min_error, error_sum.width())));

  // Tertiary objective: minimize the divisor itself. The enumeration
  // backend scans d ascending and keeps the first optimum, so pinning the
  // smallest optimal d makes the two backends -- and both CNF encoders --
  // agree on the full abstraction, not just the objective pair (the
  // Table I byte-identity smoke relies on this).
  const auto min_d = builder.minimize(d);
  speccc_check(min_d.has_value(), "tertiary objective must stay feasible");

  Abstraction out;
  out.divisor = static_cast<std::uint32_t>(builder.model_value(d));
  out.reduced_sum = *min_reduced;
  out.error_sum = *min_error;
  for (std::size_t i = 0; i < n; ++i) {
    out.reduced.push_back(
        static_cast<std::uint32_t>(builder.model_value(reduced[i])));
    const auto delta =
        static_cast<std::int64_t>(builder.model_value(deltas[i]));
    const ErrorSign sign = sign_of(request, i);
    bool early = sign != ErrorSign::kLate;
    if (sign == ErrorSign::kEither) {
      early = builder.value(early_sel[i]);
    }
    out.errors.push_back(early ? delta : -delta);
  }
  return out;
}

}  // namespace

std::optional<Abstraction> optimize(const Request& request, Backend backend,
                                    SmtEncoder encoder) {
  validate(request);
  return backend == Backend::kEnumeration ? optimize_enumeration(request)
                                          : optimize_smt(request, encoder);
}

Abstraction optimize_exact(const Request& request) {
  auto result = optimize(request, Backend::kEnumeration);
  speccc_check(result.has_value(),
               "enumeration backend always finds d=1 with zero error");
  return *result;
}

}  // namespace speccc::timeabs
