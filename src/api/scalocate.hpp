// scalocate::api — the stable public facade.
//
// One include gives a deployment everything it needs:
//
//   #include "api/scalocate.hpp"
//
//   scalocate::api::Engine engine({.workers = 4});
//   engine.load_artifact("aes128.scart");        // train once...
//   auto session = engine.open_session();        // ...serve anywhere
//   auto starts  = session.submit(std::move(trace)).get();
//
// The facade is the library's compatibility boundary: Engine/Session/
// Stream, the versioned artifact format, and the structured error types
// are kept stable; everything under core/, nn/, runtime/ may be refactored
// freely underneath it. Training still happens through core::CoLocator
// (clone-device profiling is inherently offline); export_artifact() is the
// bridge from a trained locator into this serving surface.
#pragma once

#include "api/artifact.hpp"
#include "api/engine.hpp"
#include "api/errors.hpp"
#include "api/retry.hpp"
