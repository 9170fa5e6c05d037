// Fixture: the reasoner reaching up into the verb layer the CLI and the
// daemon share.
#include "src/commands/commands.h"

int CallAVerb() { return 0; }
