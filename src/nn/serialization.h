#ifndef SDEA_NN_SERIALIZATION_H_
#define SDEA_NN_SERIALIZATION_H_

#include <string>

#include "base/status.h"
#include "nn/module.h"

namespace sdea::nn {

/// Serializes all parameters of `module` into the SDEACKP1 blob: magic, u64
/// count, then per parameter a u64-length name, the shape and the float32
/// data (base/wire.h encoding).
std::string SerializeParameters(Module* module);

/// Restores parameters by name from a blob written by SerializeParameters.
/// The whole blob is validated against the module *before* any parameter is
/// touched, so a failed load never leaves the module partially overwritten:
/// a parameter name absent from the blob or present with a mismatched shape
/// yields InvalidArgument and the module keeps its previous values, as do
/// truncation and trailing bytes. Extra entries in the blob are ignored
/// (forward compatibility).
Status DeserializeParameters(Module* module, const std::string& blob);

/// Runs every check DeserializeParameters runs, and touches nothing: Ok
/// exactly when DeserializeParameters(module, blob) would succeed. Lets a
/// caller that restores several pieces of state validate them all first.
Status CheckParameters(Module* module, const std::string& blob);

/// Writes SerializeParameters(module) to a file at `path` atomically
/// (temp file + rename): a crash mid-save leaves any previous checkpoint
/// intact, never a torn one.
Status SaveCheckpoint(Module* module, const std::string& path);

/// Reads `path` and applies DeserializeParameters (same strictness).
Status LoadCheckpoint(Module* module, const std::string& path);

}  // namespace sdea::nn

#endif  // SDEA_NN_SERIALIZATION_H_
