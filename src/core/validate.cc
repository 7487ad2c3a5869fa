// audit::Report plumbing and the one abort-on-corruption path.

#include "core/validate.h"

#include <cstdlib>
#include <iostream>
#include <sstream>

#include "common/string_util.h"

namespace ltree {
namespace audit {

std::string Violation::ToString() const {
  return StrFormat("[%s] %s: %s", rule.c_str(), path.c_str(),
                   message.c_str());
}

void Report::Add(std::string path, std::string rule, std::string message) {
  if (violations_.size() >= max_violations_) {
    ++dropped_;
    return;
  }
  violations_.push_back(
      Violation{std::move(path), std::move(rule), std::move(message)});
}

bool Report::HasRule(std::string_view rule) const {
  for (const Violation& v : violations_) {
    if (v.rule == rule) return true;
  }
  return false;
}

void Report::Absorb(const Report& other, std::string_view prefix) {
  for (const Violation& v : other.violations_) {
    Add(std::string(prefix) + v.path, v.rule, v.message);
  }
  dropped_ += other.dropped_;
}

std::string Report::ToString() const {
  if (ok()) return "ok";
  std::ostringstream os;
  os << total() << " violation(s):";
  for (const Violation& v : violations_) {
    os << "\n  " << v.ToString();
  }
  if (dropped_ > 0) {
    os << "\n  ... and " << dropped_ << " more (report cap reached)";
  }
  return os.str();
}

Status Report::ToStatus() const {
  if (ok()) return Status::OK();
  const Violation& first = violations_.front();
  std::string msg = first.ToString();
  if (total() > 1) {
    msg += StrFormat(" (+%llu more)",
                     static_cast<unsigned long long>(total() - 1));
  }
  return Status::Corruption(std::move(msg));
}

void AbortIfCorrupt(const Report& report, std::string_view what,
                    std::string_view op) {
  if (report.ok()) return;
  std::cerr << "audit failed: " << what << " corrupted after " << op << ":\n"
            << report.ToString() << "\n";
  std::abort();
}

}  // namespace audit
}  // namespace ltree
