#include "router/channel.hpp"

namespace footprint {

// Explicit instantiations for the two channel types used by the
// network, so template code is compiled (and warned about) once here.
template class Pipe<Flit>;
template class Pipe<Credit>;

static_assert(sizeof(FlitChannel) == 64 && sizeof(CreditChannel) == 64,
              "a pipe fills one cache line");

} // namespace footprint
