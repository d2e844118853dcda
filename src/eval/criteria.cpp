#include "eval/criteria.hpp"

#include <cmath>
#include <stdexcept>

namespace pdc::eval {

const char* to_string(Criterion c) {
  switch (c) {
    case Criterion::ProgrammingModels:
      return "Programming Models Supported";
    case Criterion::LanguageInterface:
      return "Language Interface";
    case Criterion::EaseOfProgramming:
      return "Ease of Programming";
    case Criterion::DebuggingSupport:
      return "Debugging Support";
    case Criterion::Customization:
      return "Customization";
    case Criterion::ErrorHandling:
      return "Error Handling";
    case Criterion::RunTimeInterface:
      return "Run-Time Interface";
    case Criterion::Integration:
      return "Integration with other Software";
    case Criterion::Portability:
      return "Portability";
  }
  return "?";
}

const char* to_string(Support s) {
  switch (s) {
    case Support::NotSupported:
      return "NS";
    case Support::PartiallySupported:
      return "PS";
    case Support::WellSupported:
      return "WS";
  }
  return "?";
}

const std::vector<Criterion>& all_criteria() {
  static const std::vector<Criterion> kAll = {
      Criterion::ProgrammingModels, Criterion::LanguageInterface,
      Criterion::EaseOfProgramming, Criterion::DebuggingSupport,
      Criterion::Customization,     Criterion::ErrorHandling,
      Criterion::RunTimeInterface,  Criterion::Integration,
      Criterion::Portability,
  };
  return kAll;
}

Support adl_rating(mp::ToolKind tool, Criterion criterion) {
  using S = Support;
  using T = mp::ToolKind;
  // Paper Section 3.3.1, verbatim.
  switch (criterion) {
    case Criterion::ProgrammingModels:
    case Criterion::LanguageInterface:
    case Criterion::Portability:
      return S::WellSupported;  // WS for all three tools
    case Criterion::EaseOfProgramming:
      return tool == T::Pvm ? S::WellSupported : S::PartiallySupported;
    case Criterion::DebuggingSupport:
      return tool == T::Express ? S::WellSupported : S::PartiallySupported;
    case Criterion::Customization:
      return tool == T::Pvm ? S::NotSupported : S::PartiallySupported;
    case Criterion::ErrorHandling:
      return S::PartiallySupported;  // "none has a mature error handling feature"
    case Criterion::RunTimeInterface:
      return tool == T::P4 ? S::PartiallySupported : S::WellSupported;
    case Criterion::Integration:
      switch (tool) {
        case T::P4:
          return S::PartiallySupported;
        case T::Pvm:
          return S::WellSupported;
        case T::Express:
          return S::NotSupported;
      }
      break;
  }
  throw std::logic_error("adl_rating: unknown criterion/tool");
}

double support_score(Support s) {
  switch (s) {
    case Support::NotSupported:
      return 0.0;
    case Support::PartiallySupported:
      return 0.5;
    case Support::WellSupported:
      return 1.0;
  }
  return 0.0;
}

AdlWeights AdlWeights::uniform() {
  AdlWeights w;
  for (Criterion c : all_criteria()) w.weights.emplace_back(c, 1.0);
  return w;
}

double AdlWeights::weight_of(Criterion c) const {
  for (const auto& [crit, weight] : weights) {
    if (crit == c) return weight;
  }
  return 0.0;
}

double adl_score(mp::ToolKind tool, const AdlWeights& weights) {
  double total = 0.0;
  double wsum = 0.0;
  for (const auto& [criterion, weight] : weights.weights) {
    if (!std::isfinite(weight)) throw std::invalid_argument("adl_score: non-finite weight");
    if (weight < 0) throw std::invalid_argument("adl_score: negative weight");
    total += weight * support_score(adl_rating(tool, criterion));
    wsum += weight;
  }
  return wsum > 0 ? total / wsum : 0.0;
}

const char* to_string(Primitive p) {
  switch (p) {
    case Primitive::SendRecv:
      return "Send/Receive";
    case Primitive::Broadcast:
      return "Broadcast/Multicast";
    case Primitive::Ring:
      return "Ring";
    case Primitive::GlobalSum:
      return "Global Sum";
  }
  return "?";
}

const std::vector<Primitive>& all_primitives() {
  static const std::vector<Primitive> kAll = {Primitive::SendRecv, Primitive::Broadcast,
                                              Primitive::Ring, Primitive::GlobalSum};
  return kAll;
}

std::string native_call(mp::ToolKind tool, Primitive primitive) {
  using T = mp::ToolKind;
  switch (primitive) {
    case Primitive::SendRecv:
    case Primitive::Ring:  // "implemented using snd/recv in all three tools"
      switch (tool) {
        case T::Express:
          return "exsend/exreceive";
        case T::P4:
          return "p4_send/p4_recv";
        case T::Pvm:
          return "pvm_send/pvm_recv";
      }
      break;
    case Primitive::Broadcast:
      switch (tool) {
        case T::Express:
          return "exbroadcast";
        case T::P4:
          return "p4_broadcast";
        case T::Pvm:
          return "pvm_mcast";
      }
      break;
    case Primitive::GlobalSum:
      switch (tool) {
        case T::Express:
          return "excombine";
        case T::P4:
          return "p4_global_op";
        case T::Pvm:
          return "Not Available";
      }
      break;
  }
  throw std::logic_error("native_call: unknown tool/primitive");
}

}  // namespace pdc::eval
