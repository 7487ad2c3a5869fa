// The paper's Section 3 analytical model, as executable formulas.
//
// Forms as reconstructed from the paper's Sections 3.1 and 4.1:
//   height(f,s,n)  = ceil(log_{f/s} n)            (bulk-loaded tree height)
//   cost(f,s,n)    = (1 + 2f/(s-1)) * log n / log(f/s) + f
//                    — amortized node accesses per insertion: the h term for
//                    ancestor count updates, 2f/(s-1) per level for the
//                    charged split relabelings, plus <= f for right-sibling
//                    relabels.
//   bits(f,s,n)    = log2(f+1) * log n / log(f/s)
//                    — the root label space is (f+1)^height.
//   batch(f,s,n,k) = (log n)/(k log(f/s)) + f/k
//                    + (2f/(s-1)) * ((log n - log k)/log(f/s) + 1)
//                    — Section 4.1's amortized per-leaf cost for batches of
//                    k; decreases roughly logarithmically in k.

#ifndef LTREE_MODEL_COST_MODEL_H_
#define LTREE_MODEL_COST_MODEL_H_

#include <cstdint>

namespace ltree {
namespace model {

/// Continuous relaxation of the Section 3.1 formulas. All functions require
/// f > s >= 2 (as reals) and n >= 2.
struct CostModel {
  /// Bulk-load height: log n / log(f/s).
  static double Height(double f, double s, double n);

  /// Amortized node accesses per single-leaf insertion (Section 3.1).
  static double AmortizedInsertCost(double f, double s, double n);

  /// Bits per label (Section 3.1).
  static double LabelBits(double f, double s, double n);

  /// Amortized per-leaf cost for batch insertions of size k (Section 4.1).
  static double BatchAmortizedCost(double f, double s, double n, double k);

  /// Label-comparison cost in machine words: 1 while the label fits a word,
  /// proportional to the word count beyond that (Section 3.2, model (c)).
  static double QueryCompareCost(double bits, uint32_t word_bits = 64);

  /// Section 3.2 model (c): expected per-operation cost for a workload with
  /// `query_fraction` of label comparisons and (1-query_fraction) inserts.
  static double OverallCost(double f, double s, double n,
                            double query_fraction, uint32_t word_bits = 64);
};

}  // namespace model
}  // namespace ltree

#endif  // LTREE_MODEL_COST_MODEL_H_
