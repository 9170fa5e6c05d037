#include "src/corpus.h"

#include <cstdlib>
#include <iostream>
#include <optional>
#include <utility>

#include "src/base/deterministic.h"
#include "src/cr/schema_text.h"
#include "src/generator/random_schema.h"

namespace perfbench {
namespace {

// 32-bit finalizer (murmur3 fmix32): decorrelates (seed, stream, index).
std::uint32_t Mix(std::uint32_t x) {
  x ^= x >> 16;
  x *= 0x85ebca6bu;
  x ^= x >> 13;
  x *= 0xc2b2ae35u;
  x ^= x >> 16;
  return x;
}

// "C" + std::to_string(i) trips a GCC 12 -Wrestrict false positive.
std::string Name(const char* prefix, int index) {
  std::string name = prefix;
  name += std::to_string(index);
  return name;
}

std::uint32_t DeriveSeed(std::uint32_t seed, std::uint32_t stream,
                         std::uint32_t index) {
  return Mix(Mix(seed * 0x9e3779b9u + stream) ^ (index * 0x7feb352du + 1u));
}

crsat::Schema Unwrap(crsat::Result<crsat::Schema> schema) {
  if (!schema.ok()) {
    std::cerr << "perfbench: generator failed: " << schema.status() << "\n";
    std::exit(2);
  }
  return std::move(schema.value());
}

}  // namespace

const char* InputKindName(InputKind kind) {
  switch (kind) {
    case InputKind::kIsaFree:
      return "isa_free";
    case InputKind::kIsa:
      return "isa";
    case InputKind::kFigure1:
      return "figure1";
  }
  return "?";
}

std::vector<SchemaInput> MakeSchemaCorpus(std::uint32_t seed,
                                          std::uint32_t stream, int count,
                                          int classes) {
  std::vector<SchemaInput> corpus;
  corpus.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const std::uint32_t derived =
        DeriveSeed(seed, stream, static_cast<std::uint32_t>(i));
    SchemaInput input;
    input.name = Name("s", i);
    input.kind = i % 4 == 0   ? InputKind::kIsaFree
                 : i % 4 == 3 ? InputKind::kFigure1
                              : InputKind::kIsa;
    crsat::RandomSchemaParams params;
    params.seed = derived;
    // The gadget adds two classes and the random part gives two up, so
    // every schema has `classes` classes.
    params.num_classes =
        input.kind == InputKind::kFigure1 ? classes - 2 : classes;
    params.num_relationships = 3;
    params.isa_density = input.kind == InputKind::kIsaFree ? 0.0 : 0.3;
    crsat::Schema schema = Unwrap(crsat::GenerateRandomSchema(params));
    if (input.kind == InputKind::kFigure1) {
      // Figure 1: |Fig1| >= 2|F1| and |Fig1| <= |F2| <= |F1| leave only
      // the empty finite model for F1 and F2, and C0 < F2 empties C0.
      crsat::SchemaBuilder builder = schema.ToBuilder();
      builder.AddClass("F1");
      builder.AddClass("F2");
      builder.AddIsa("F2", "F1");
      builder.AddIsa("C0", "F2");
      builder.AddRelationship("Fig1", {{"Fig1_V1", "F1"}, {"Fig1_V2", "F2"}});
      builder.SetCardinality("F1", "Fig1", "Fig1_V1", {2, std::nullopt});
      builder.SetCardinality("F2", "Fig1", "Fig1_V2", {0, 1});
      schema = Unwrap(builder.Build());
      input.forced_unsat = {"C0", "F1", "F2"};
    }
    crsat::DeterministicRng rng(derived ^ 0x51ed27u);
    const int random_classes = params.num_classes;
    const int sub = rng.UniformInt(0, random_classes - 1);
    const int super =
        (sub + rng.UniformInt(1, random_classes - 1)) % random_classes;
    input.isa_sub = Name("C", sub);
    input.isa_super = Name("C", super);
    input.text = crsat::SchemaToText(schema, Name("B", i));
    corpus.push_back(std::move(input));
  }
  return corpus;
}

std::vector<ChainInput> MakeChainCorpus(std::uint32_t seed, int count,
                                        int depth) {
  std::vector<ChainInput> corpus;
  corpus.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    crsat::DeterministicRng rng(
        DeriveSeed(seed, 0xc4a1u, static_cast<std::uint32_t>(i)));
    const int top_min = rng.UniformInt(0, 2);
    const int top_max = top_min + rng.UniformInt(1, 4);
    const int bottom_min = rng.UniformInt(top_min, top_max - 1);
    const int bottom_max = rng.UniformInt(bottom_min, top_max);
    const std::string top = Name("C", depth - 1);

    // DSL text, written directly so that parsing it is the program's work
    // and generating it costs next to nothing.
    auto card = [](const std::string& cls, const char* role, int min,
                   int max) {
      return "  card " + cls + " in R." + role + " = (" +
             std::to_string(min) + ", " + std::to_string(max) + ");\n";
    };
    std::string text = "schema " + Name("chain", i) + " {\n  class ";
    for (int c = 0; c < depth; ++c) {
      text += Name("C", c) + ", ";
    }
    text += "T;\n";
    for (int c = 0; c + 1 < depth; ++c) {
      text += "  isa " + Name("C", c) + " < " + Name("C", c + 1) + ";\n";
    }
    text += "  relationship R(U: " + top + ", V: T);\n";
    text += card(top, "U", top_min, top_max);
    text += card("C0", "U", bottom_min, bottom_max);
    if (depth > 2 && rng.Coin(0.5)) {
      // A looser refinement in the middle of the chain: it must not
      // change C0's inherited range.
      const int middle = rng.UniformInt(1, depth - 2);
      text += card(Name("C", middle), "U", rng.UniformInt(top_min, bottom_min),
                   rng.UniformInt(bottom_max, top_max));
    }
    text += card("T", "V", 1, 1) + "}\n";

    ChainInput input{std::move(text), static_cast<std::uint64_t>(bottom_min),
                     static_cast<std::uint64_t>(bottom_max)};
    corpus.push_back(std::move(input));
  }
  return corpus;
}

}  // namespace perfbench
