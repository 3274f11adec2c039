#include "verify/comparator.h"

#include <cmath>

#include "support/logging.h"
#include "support/string_util.h"

namespace hpcmixp::verify {

OutputComparator::OutputComparator(const std::string& metricName,
                                   double threshold)
    : metric_(&MetricRegistry::instance().get(metricName)),
      threshold_(threshold)
{
    if (threshold < 0.0)
        support::fatal("verification threshold must be non-negative");
    std::string lowered = support::toLower(metric_->name());
    if (lowered == "mae")
        fused_ = Fused::Mae;
    else if (lowered == "mse")
        fused_ = Fused::Mse;
    else if (lowered == "rmse")
        fused_ = Fused::Rmse;
    else if (lowered == "r2")
        fused_ = Fused::R2;
    else if (lowered == "mcr")
        fused_ = Fused::Mcr;
}

Verdict
OutputComparator::verify(std::span<const double> reference,
                         std::span<const double> test) const
{
    Verdict verdict;
    if (fused_ == Fused::None) {
        verdict.rawValue = metric_->compute(reference, test);
        verdict.loss = metric_->loss(reference, test);
        verdict.passed =
            std::isfinite(verdict.loss) && verdict.loss <= threshold_;
        return verdict;
    }
    return verifyStats(computeErrorStats(reference, test));
}

Verdict
OutputComparator::verifyStats(const ErrorStats& stats) const
{
    HPCMIXP_ASSERT(fused_ != Fused::None,
                   "verifyStats requires a built-in metric");
    Verdict verdict;
    switch (fused_) {
    case Fused::Mae:
        verdict.rawValue = stats.mae();
        verdict.loss = verdict.rawValue;
        break;
    case Fused::Mse:
        verdict.rawValue = stats.mse();
        verdict.loss = verdict.rawValue;
        break;
    case Fused::Rmse:
        verdict.rawValue = stats.rmse();
        verdict.loss = verdict.rawValue;
        break;
    case Fused::R2:
        verdict.rawValue = stats.r2();
        verdict.loss = 1.0 - verdict.rawValue;
        break;
    case Fused::Mcr:
        verdict.rawValue = stats.mcr();
        verdict.loss = verdict.rawValue;
        break;
    case Fused::None:
        break;
    }
    verdict.passed =
        std::isfinite(verdict.loss) && verdict.loss <= threshold_;
    return verdict;
}

} // namespace hpcmixp::verify
