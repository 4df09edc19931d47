// Conventions fixture: a bench file whose includes reach the fixture
// headers, so only the unreached ones report reached-header.
#include "bad_attach.hpp"
#include "bad_header.hpp"
#include "blk/bad_completion.hpp"
#include "good.hpp"
#include "pair.hpp"
#include "rados/bad_recovery.hpp"
#include "sim/bad_event.hpp"
