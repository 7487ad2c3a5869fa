// Synthetic XML document generators (the paper names no real corpora).
// All generators are seed-deterministic.

#ifndef LTREE_WORKLOAD_XML_GENERATOR_H_
#define LTREE_WORKLOAD_XML_GENERATOR_H_

#include <cstdint>
#include <string>

#include "common/random.h"
#include "xml/xml_node.h"

namespace ltree {
namespace workload {

/// Shape knobs for random ordered trees.
struct RandomDocOptions {
  uint64_t num_elements = 1000;
  /// Elements deeper than this become leaves.
  uint32_t max_depth = 12;
  /// Distinct tag names (tag0..tagV-1), reused to make //-queries selective.
  uint32_t tag_vocabulary = 16;
  /// Probability that an element receives a text child.
  double text_probability = 0.3;
  uint64_t seed = 42;
};

/// Grows a random ordered tree by repeatedly attaching a new element under
/// a uniformly chosen existing element (bounded by max_depth).
xml::Document GenerateRandomDocument(const RandomDocOptions& options);

/// A "book site" catalog in the spirit of the paper's running example
/// (Figure 1): site/books/book/chapter/title|para plus an authors section,
/// giving natural targets for queries like "book//title".
/// Roughly 8 + books*(5 + chapters_per_book*3) elements.
xml::Document GenerateCatalog(uint64_t books, uint32_t chapters_per_book,
                              uint64_t seed);

/// Serialized form of GenerateCatalog (handy for parser-driven paths).
std::string GenerateCatalogXml(uint64_t books, uint32_t chapters_per_book,
                               uint64_t seed);

}  // namespace workload
}  // namespace ltree

#endif  // LTREE_WORKLOAD_XML_GENERATOR_H_
