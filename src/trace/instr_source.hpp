// Instruction-stream abstraction.
//
// MUSA decouples trace *producers* (a DynamoRIO tracer in the paper, the
// synthetic kernel models here) from trace *consumers* (the fusion pass and
// the core timing model) behind this interface. Streams are pull-based and
// restartable, so one trace drives all 864 architectural configurations —
// the property the methodology relies on to amortise tracing cost.
#pragma once

#include <algorithm>
#include <vector>

#include "isa/instr.hpp"

namespace musa::trace {

class InstrSource {
 public:
  virtual ~InstrSource() = default;

  /// Produces the next dynamic instruction; returns false at end of stream.
  virtual bool next(isa::Instr& out) = 0;

  /// Rewinds to the beginning of the stream (must replay identically).
  virtual void reset() = 0;

  /// Bulk read: hands out a contiguous run of at most `max_n` upcoming
  /// instructions and marks them consumed, or returns 0 if this source
  /// cannot (or is exhausted). Consumers fall back to next() — behaviour is
  /// identical either way; sources that can hand out runs just skip the
  /// virtual call per instruction on the fusion and warm-up hot paths.
  /// The cap lets a consumer stop at an exact
  /// instruction count (functional warm-up must leave the source positioned
  /// precisely where the measured run begins).
  virtual std::size_t take_block(const isa::Instr** out,
                                 std::size_t /*max_n*/) {
    *out = nullptr;
    return 0;
  }
};

/// In-memory stream over a fixed instruction vector (tests, small traces).
class VectorSource final : public InstrSource {
 public:
  explicit VectorSource(std::vector<isa::Instr> instrs)
      : instrs_(std::move(instrs)) {}

  bool next(isa::Instr& out) override {
    if (pos_ >= instrs_.size()) return false;
    out = instrs_[pos_++];
    return true;
  }

  void reset() override { pos_ = 0; }

  std::size_t take_block(const isa::Instr** out, std::size_t max_n) override {
    const std::size_t n = std::min(instrs_.size() - pos_, max_n);
    *out = n > 0 ? instrs_.data() + pos_ : nullptr;
    pos_ += n;
    return n;
  }

 private:
  std::vector<isa::Instr> instrs_;
  std::size_t pos_ = 0;
};

/// Stream over a *borrowed* instruction vector, starting at `begin`.
///
/// A stream generated once into a buffer can be walked many times through
/// SpanSources. `begin` positions the stream as if a prefix had already
/// been consumed — a measured run starts where the functional warm-up left
/// off. The vector must outlive the source.
class SpanSource final : public InstrSource {
 public:
  explicit SpanSource(const std::vector<isa::Instr>& instrs,
                      std::size_t begin = 0)
      : instrs_(&instrs), begin_(begin), pos_(begin) {}

  bool next(isa::Instr& out) override {
    if (pos_ >= instrs_->size()) return false;
    out = (*instrs_)[pos_++];
    return true;
  }

  void reset() override { pos_ = begin_; }

  std::size_t take_block(const isa::Instr** out, std::size_t max_n) override {
    const std::size_t n = std::min(instrs_->size() - pos_, max_n);
    *out = n > 0 ? instrs_->data() + pos_ : nullptr;
    pos_ += n;
    return n;
  }

 private:
  const std::vector<isa::Instr>* instrs_;
  std::size_t begin_;
  std::size_t pos_;
};

}  // namespace musa::trace
