#include "core/params.h"

#include "common/macros.h"
#include "common/math_util.h"
#include "common/string_util.h"

namespace ltree {

Status Params::Validate() const {
  if (s < 2) {
    return Status::InvalidArgument("L-Tree requires s >= 2, got s=" +
                                   std::to_string(s));
  }
  if (f == 0 || f % s != 0) {
    return Status::InvalidArgument(
        StrFormat("L-Tree requires s | f (complete f/s-ary subtrees), got "
                  "f=%u s=%u",
                  f, s));
  }
  if (f / s < 2) {
    return Status::InvalidArgument(
        StrFormat("L-Tree requires branching base d = f/s >= 2, got f=%u s=%u",
                  f, s));
  }
  if (f > kMaxFanout) {
    return Status::InvalidArgument(
        StrFormat("L-Tree requires f <= %u, got f=%u", kMaxFanout, f));
  }
  return Status::OK();
}

std::string Params::ToString() const {
  return StrFormat("Params{f=%u, s=%u, d=%u, purge=%d}", f, s, d(),
                   purge_tombstones_on_split ? 1 : 0);
}

Result<PowerTable> PowerTable::Make(const Params& params) {
  LTREE_RETURN_IF_ERROR(params.Validate());
  PowerTable t;
  const uint64_t base = params.f + 1;
  const uint64_t d = params.d();
  const uint64_t s = params.s;
  // Grow the tables until either power computation overflows.
  uint64_t pf = 1;
  uint64_t pd = 1;
  t.pow_f1_.push_back(pf);
  t.pow_d_.push_back(pd);
  t.lmax_.push_back(s);  // s * d^0
  while (true) {
    auto next_pf = CheckedMul(pf, base);
    auto next_pd = CheckedMul(pd, d);
    if (!next_pf || !next_pd) break;
    auto next_lmax = CheckedMul(s, *next_pd);
    if (!next_lmax) break;
    pf = *next_pf;
    pd = *next_pd;
    t.pow_f1_.push_back(pf);
    t.pow_d_.push_back(pd);
    t.lmax_.push_back(*next_lmax);
  }
  t.max_height_ = static_cast<uint32_t>(t.pow_f1_.size() - 1);
  return t;
}

}  // namespace ltree
