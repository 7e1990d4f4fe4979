#include "core/engine.hpp"

#include <stdexcept>

#include "core/gsbs.hpp"
#include "core/gwts.hpp"

namespace bla::core {

std::unique_ptr<IAgreementEngine> make_engine(
    EngineKind kind, const EngineConfig& config,
    std::shared_ptr<const crypto::ISigner> signer,
    IAgreementEngine::DecideFn on_decide) {
  switch (kind) {
    case EngineKind::kGwts:
      return std::make_unique<GwtsProcess>(GwtsConfig{config},
                                           std::move(on_decide));
    case EngineKind::kGsbs:
      if (!signer) {
        throw std::invalid_argument("GSbS engine requires a signer");
      }
      return std::make_unique<GsbsProcess>(config, std::move(signer),
                                           std::move(on_decide));
  }
  throw std::invalid_argument("unknown engine kind");
}

}  // namespace bla::core
