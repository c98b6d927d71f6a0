package learner

import "repro/internal/nn"

// Seams and helpers for the external tests, which drive the learner
// against a real serve registry.

var (
	MLP           = mlp
	WriteCaptures = writeCaptures
)

// SetTrainFn replaces a managed model's candidate training.
func SetTrainFn(c *Controller, model string, f func(member int, path string, train *nn.Dataset, cfg nn.TrainConfig) (*nn.Network, error)) {
	c.models[model].trainFn = f
}

// SetStepHook runs f after each named step of the model's publish and
// rollback.
func SetStepHook(c *Controller, model string, f func(step string)) {
	c.models[model].step = f
}
