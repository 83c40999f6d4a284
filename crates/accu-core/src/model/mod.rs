//! The ACCU problem model: user classes, benefits, and instances.

mod benefit;
mod instance;
mod user;

pub use benefit::BenefitSchedule;
pub use instance::{AccuInstance, AccuInstanceBuilder};
pub use user::UserClass;
