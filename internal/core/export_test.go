package core

// MasterFrontend exposes the master's phase-1 leg to the external tests.
var MasterFrontend = masterFrontend
