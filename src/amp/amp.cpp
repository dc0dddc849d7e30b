#include "amp/amp.hpp"

namespace hg::amp {

bool needs_loss_scaling(Dtype dt) { return dtype_needs_loss_scaling(dt); }

}  // namespace hg::amp
