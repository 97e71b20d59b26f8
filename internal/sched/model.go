package sched

// Model is the static cost estimator behind a type. It has no fields and
// prices every task with EstimateCost; it remains only because the
// benchmark harness calls StaticModel().Costs, and goes once that caller
// calls Costs directly.
type Model struct{}

// StaticModel returns the paper's estimator.
func StaticModel() Model { return Model{} }

// Costs evaluates the estimator once per task, like the package-level Costs.
func (Model) Costs(tasks []Task) []Costed { return Costs(tasks) }
